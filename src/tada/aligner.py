"""CTC training and Viterbi forced alignment on synthetic frames.

The alignment objective is the max-sum program

    p = argmax_{1 <= p_1 < ... < p_L <= T}  sum_i y[p_i, w_i]

solved by dynamic programming with suffix-maximum acceleration in O(L*T),
ties broken toward the earliest feasible position sequence. CTC likelihood
uses the standard log-domain forward recursion; its gradient is the
alpha-beta occupancy, exposed to the autodiff engine as a custom primitive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from . import numerics as nx
from .errors import InfeasibleError, NumericalAbort, ValidationError
from .numerics import Tensor
from .numerics.checkpoint import read_exact

NEG_INF = -np.inf


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass
class Alignment:
    """1-based frame positions for each token, strictly increasing."""

    positions: np.ndarray
    tokens: np.ndarray
    score: float = 0.0

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.int64)
        self.tokens = np.asarray(self.tokens, dtype=np.int64)
        if self.positions.size != self.tokens.size:
            raise ValidationError("alignment positions and tokens differ in length")
        if self.positions.size and np.any(np.diff(self.positions) <= 0):
            raise ValidationError("alignment positions must be strictly increasing")


@dataclass
class CurriculumVocab:
    """Active vocabulary subset for the CTC loss at a given step."""

    active: set[int]
    cap: int | None
    vocab_size: int
    blank: int

    def column_mask(self) -> np.ndarray:
        mask = np.zeros(self.vocab_size + 1, dtype=bool)
        mask[sorted(i for i in self.active if i != self.blank)] = True
        mask[self.blank] = True
        return mask


DEFAULT_SCHEDULE: dict[int, int | None] = {0: 64, 5000: 256, 20000: None}


def curriculum_subset(
    step: int,
    observed: np.ndarray,
    batch_targets,
    vocab_size: int,
    schedule: dict[int, int | None] | None = None,
) -> CurriculumVocab:
    """Most-frequent observed indices up to the schedule cap, plus the
    current batch targets and blank.

    ``observed`` is a per-index occurrence count; the cap for a step is the
    entry of the latest schedule threshold not exceeding it, with ``None``
    meaning the full vocabulary.
    """
    if step < 0:
        raise ValidationError(f"curriculum step must be >= 0, got {step}")
    schedule = DEFAULT_SCHEDULE if schedule is None else schedule
    blank = vocab_size
    cap = None
    for threshold in sorted(schedule):
        if step >= threshold:
            cap = schedule[threshold]
    if cap is None:
        active = set(range(vocab_size))
    else:
        observed = np.asarray(observed)
        seen = np.flatnonzero(observed > 0)
        # Sort by descending count, index ascending on ties, keep the top cap.
        order = seen[np.lexsort((seen, -observed[seen]))]
        active = set(order[:cap].tolist())
    active.update(int(t) for t in np.asarray(batch_targets).ravel().tolist())
    active.add(blank)
    return CurriculumVocab(active=active, cap=cap, vocab_size=vocab_size, blank=blank)


# ---------------------------------------------------------------------------
# CTC log-likelihood
# ---------------------------------------------------------------------------


def ctc_required_frames(targets: np.ndarray) -> int:
    targets = np.asarray(targets)
    repeats = int(np.sum(targets[1:] == targets[:-1])) if targets.size > 1 else 0
    return int(targets.size + repeats)


def _extend_with_blanks(targets: np.ndarray, blank: int) -> np.ndarray:
    ext = np.full(2 * targets.size + 1, blank, dtype=np.int64)
    ext[1::2] = targets
    return ext


def _ctc_alpha(y: np.ndarray, lab: np.ndarray, blank: int) -> np.ndarray:
    T = y.shape[0]
    S = lab.size
    alpha = np.full((T, S), NEG_INF)
    alpha[0, 0] = y[0, lab[0]]
    if S > 1:
        alpha[0, 1] = y[0, lab[1]]
    for t in range(1, T):
        prev = alpha[t - 1]
        cur = prev.copy()
        cur[1:] = np.logaddexp(cur[1:], prev[:-1])
        skip_ok = np.zeros(S, dtype=bool)
        skip_ok[2:] = (lab[2:] != blank) & (lab[2:] != lab[:-2])
        cur[skip_ok] = np.logaddexp(cur[skip_ok], prev[np.flatnonzero(skip_ok) - 2])
        alpha[t] = cur + y[t, lab]
    return alpha


def _ctc_beta(y: np.ndarray, lab: np.ndarray, blank: int) -> np.ndarray:
    T = y.shape[0]
    S = lab.size
    beta = np.full((T, S), NEG_INF)
    beta[T - 1, S - 1] = 0.0
    if S > 1:
        beta[T - 1, S - 2] = 0.0
    for t in range(T - 2, -1, -1):
        nxt = beta[t + 1] + y[t + 1, lab]
        cur = nxt.copy()
        cur[:-1] = np.logaddexp(cur[:-1], nxt[1:])
        skip_ok = np.zeros(S, dtype=bool)
        skip_ok[: S - 2] = (lab[2:] != blank) & (lab[2:] != lab[:-2])
        idx = np.flatnonzero(skip_ok)
        cur[idx] = np.logaddexp(cur[idx], nxt[idx + 2])
        beta[t] = cur
    return beta


def ctc_log_likelihood(log_probs, targets, blank: int | None = None) -> Tensor:
    """Log of the summed probability over all valid CTC paths.

    ``log_probs`` is (T, V+1) with the last column the blank by default;
    differentiable with the alpha-beta occupancy as gradient. Infeasible
    target lengths raise instead of silently returning -inf.
    """
    y_t = log_probs if isinstance(log_probs, Tensor) else nx.tensor(log_probs)
    y = y_t.data
    if y.ndim != 2 or y.shape[0] < 1:
        raise ValidationError(f"ctc_log_likelihood: logits must be (T, V+1), got {y.shape}")
    targets = np.asarray(targets, dtype=np.int64)
    T, width = y.shape
    blank = width - 1 if blank is None else blank
    if targets.size and (targets.min() < 0 or targets.max() >= width):
        raise ValidationError("ctc_log_likelihood: target id out of range")
    required = ctc_required_frames(targets)
    if T < required:
        raise InfeasibleError(
            f"ctc_log_likelihood: {T} frames cannot emit {targets.size} targets "
            f"({required} required emission steps)"
        )

    if targets.size == 0:
        loglik = float(y[:, blank].sum())

        def backward_empty(g):
            grad = np.zeros_like(y)
            grad[:, blank] = g
            if y_t.requires_grad:
                y_t.grad = grad if y_t.grad is None else y_t.grad + grad

        return nx.custom_op("ctc_log_likelihood", np.asarray(loglik), (y_t,), backward_empty)

    lab = _extend_with_blanks(targets, blank)
    alpha = _ctc_alpha(y, lab, blank)
    tail = [alpha[T - 1, -1]]
    if lab.size > 1:
        tail.append(alpha[T - 1, -2])
    loglik = float(np.logaddexp.reduce(tail))

    def backward(g):
        beta = _ctc_beta(y, lab, blank)
        occupancy = np.exp(alpha + beta - loglik)
        grad = np.zeros_like(y)
        rows = np.broadcast_to(np.arange(T)[:, None], occupancy.shape)
        cols = np.broadcast_to(lab[None, :], occupancy.shape)
        np.add.at(grad, (rows, cols), occupancy)
        if y_t.requires_grad:
            y_t.grad = g * grad if y_t.grad is None else y_t.grad + g * grad

    return nx.custom_op("ctc_log_likelihood", np.asarray(loglik), (y_t,), backward)


def ctc_loss(log_probs, targets, blank: int | None = None) -> Tensor:
    return nx.scale(ctc_log_likelihood(log_probs, targets, blank), -1.0)


# ---------------------------------------------------------------------------
# Viterbi max-sum alignment
# ---------------------------------------------------------------------------


def viterbi_align(log_probs: np.ndarray, tokens) -> Alignment:
    """Positions maximizing sum_i y[p_i, w_i] over strictly increasing p.

    Suffix dynamic program: e[i][t] is the best score of placing tokens
    i..L with p_i = t; suffix maxima give O(L*T) and the earliest-argmax
    bookkeeping yields the lexicographically smallest optimal sequence.
    """
    y = log_probs.data if isinstance(log_probs, Tensor) else np.asarray(log_probs, dtype=np.float64)
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.size == 0:
        raise ValidationError("viterbi_align: tokens must be non-empty")
    T = y.shape[0]
    L = tokens.size
    if L > T:
        raise InfeasibleError(f"viterbi_align: {L} tokens cannot align to {T} frames")

    # e[i] over frame t (0-based); feasible t in [i, T - (L-1-i) - 1].
    e = np.full((L, T), NEG_INF)
    best_at = np.zeros((L, T), dtype=np.int64)  # earliest argmax of e[i][t:]
    best_val = np.full((L, T), NEG_INF)

    def fill_suffix(i: int) -> None:
        val = NEG_INF
        arg = T - 1
        for t in range(T - 1, -1, -1):
            if e[i, t] >= val:
                val = e[i, t]
                arg = t
            best_val[i, t] = val
            best_at[i, t] = arg

    e[L - 1, L - 1 :] = y[L - 1 :, tokens[L - 1]]
    fill_suffix(L - 1)
    for i in range(L - 2, -1, -1):
        hi = T - (L - 1 - i)
        e[i, i:hi] = y[i:hi, tokens[i]] + best_val[i + 1, i + 1 : hi + 1]
        fill_suffix(i)

    positions = np.zeros(L, dtype=np.int64)
    prev = -1
    for i in range(L):
        positions[i] = best_at[i, prev + 1]
        prev = positions[i]
    score = float(best_val[0, 0])
    return Alignment(positions=positions + 1, tokens=tokens, score=score)


def viterbi_score_bruteforce(log_probs: np.ndarray, tokens) -> tuple[float, tuple[int, ...]]:
    """Exhaustive-enumeration oracle over all increasing position tuples."""
    from itertools import combinations

    y = np.asarray(log_probs, dtype=np.float64)
    tokens = np.asarray(tokens, dtype=np.int64)
    best = (NEG_INF, ())
    for combo in combinations(range(y.shape[0]), tokens.size):
        s = float(sum(y[t, w] for t, w in zip(combo, tokens)))
        if s > best[0]:
            best = (s, tuple(c + 1 for c in combo))
    return best


# ---------------------------------------------------------------------------
# Alignment filters
# ---------------------------------------------------------------------------


MAX_GAP = 150


def filter_alignment(
    p,
    T: int,
    max_run_frames: int = 3,
    max_gap: int = MAX_GAP,
) -> str | None:
    """Return a drop reason or None to keep.

    Drops "consecutive-run" when successive aligned positions occupy more
    than ``max_run_frames`` consecutive frames, and "gap" when any position
    difference, the leading offset p_1, or the trailing slack T - p_L
    exceeds ``max_gap``.
    """
    p = np.asarray(p, dtype=np.int64)
    if p.size == 0:
        raise ValidationError("filter_alignment: empty alignment")
    run = 1
    for d in np.diff(p).tolist():
        run = run + 1 if d == 1 else 1
        if run > max_run_frames:
            return "consecutive-run"
    if p[0] > max_gap or (T - p[-1]) > max_gap:
        return "gap"
    if p.size > 1 and int(np.diff(p).max()) > max_gap:
        return "gap"
    return None


# ---------------------------------------------------------------------------
# Toy acoustic CTC model
# ---------------------------------------------------------------------------


@dataclass
class AlignerConfig:
    d_in: int = 16
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 128
    vocab_size: int = 32
    n_graphemes: int = 8
    lambda_inter: float = 0.3
    curriculum: dict[int, int | None] = field(default_factory=lambda: dict(DEFAULT_SCHEDULE))
    use_curriculum: bool = True


class AlignerModel:
    """Two local-mixing layers + two transformer layers + CTC heads."""

    def __init__(self, config: AlignerConfig, rng: np.random.Generator, params: dict | None = None):
        self.config = config
        self.tf = nn.TransformerConfig(
            n_layers=2, d_model=config.d_model, n_heads=config.n_heads, d_ff=config.d_ff
        )
        if params is not None:
            self.params = params
            return
        d = config.d_model
        self.params = {}
        nn.init_linear(self.params, "in_proj", rng, config.d_in, d)
        nn.init_linear(self.params, "mix0", rng, 3 * d, d)
        nn.init_linear(self.params, "mix1", rng, 3 * d, d)
        nn.init_stack(self.params, "enc", rng, self.tf)
        nn.init_linear(self.params, "head_main", rng, d, config.vocab_size + 1)
        nn.init_linear(self.params, "head_inter", rng, d, config.n_graphemes + 1)

    def _mix(self, name: str, x: Tensor) -> Tensor:
        T = x.shape[0]
        zero = nx.zeros((1, x.shape[1]), dtype=x.dtype)
        left = nx.concat([zero, nx.gather_rows(x, np.arange(0, T - 1))], axis=0)
        right = nx.concat([nx.gather_rows(x, np.arange(1, T)), zero], axis=0)
        return nx.gelu(nn.linear(self.params, name, nx.concat([left, x, right], axis=1)))

    def forward(self, frames) -> tuple[Tensor, Tensor]:
        """Raw main logits (T, V+1) and intermediate logits (T, G+1)."""
        x = frames if isinstance(frames, Tensor) else nx.tensor(frames)
        T = x.shape[0]
        x = nn.linear(self.params, "in_proj", x)
        x = x + self._mix("mix0", x)
        x = x + self._mix("mix1", x)
        mask = nn.full_mask(T)
        positions = np.arange(T)
        x = nn.block(self.params, "enc/layer0", x, mask, self.tf, positions)
        inter = nn.linear(self.params, "head_inter", x)
        x = nn.block(self.params, "enc/layer1", x, mask, self.tf, positions)
        x = nn.ln(self.params, "enc/ln_out", x)
        return nn.linear(self.params, "head_main", x), inter

    def log_probs(self, frames) -> np.ndarray:
        """Log-softmax-normalized CTC scores for alignment extraction."""
        with nx.no_grad():
            logits, _ = self.forward(frames)
            return nx.log_softmax(logits).data

    def align(self, frames, tokens) -> Alignment:
        return viterbi_align(self.log_probs(frames), tokens)

    def save(self, path) -> None:
        names = "d_in d_model n_heads d_ff vocab_size n_graphemes lambda_inter".split()
        extra = {f"config/{k}": np.array([float(getattr(self.config, k))]) for k in names}
        nn.save_params(path, self.params, extra=extra)

    @classmethod
    def load(cls, path, dtype=None) -> "AlignerModel":
        arrays = nx.load_arrays(path)
        ints = {"d_in", "d_model", "n_heads", "d_ff", "vocab_size", "n_graphemes"}
        kwargs = {}
        for key, val in arrays.items():
            if key.startswith("config/"):
                name = key.split("/", 1)[1]
                kwargs[name] = int(val[0]) if name in ints else float(val[0])
        config = AlignerConfig(**kwargs)
        params = nn.load_params(
            {k: v for k, v in arrays.items() if not k.startswith("config/")},
            requires_grad=True,
            dtype=dtype,
        )
        return cls(config, rng=np.random.default_rng(0), params=params)


def aligner_batch_loss(
    model: AlignerModel,
    batch: list[tuple[np.ndarray, np.ndarray]],
    column_mask: np.ndarray | None = None,
) -> tuple[Tensor, dict]:
    """Mean CTC loss over the batch: main + lambda_inter * intermediate."""
    cfg = model.config
    main_terms, inter_terms = [], []
    for frames, tokens in batch:
        logits, inter_logits = model.forward(frames)
        if column_mask is not None:
            mask = np.broadcast_to(column_mask, logits.shape)
            logp = nx.log_softmax(logits, mask=mask)
        else:
            logp = nx.log_softmax(logits)
        main_terms.append(ctc_loss(logp, tokens))
        if cfg.lambda_inter > 0.0:
            graphemes = np.asarray(tokens) % cfg.n_graphemes
            inter_logp = nx.log_softmax(inter_logits)
            inter_terms.append(ctc_loss(inter_logp, graphemes))
    main = nx.scale(sum(main_terms[1:], main_terms[0]), 1.0 / len(main_terms))
    total = main
    report = {"ctc": float(main.data)}
    if inter_terms:
        inter = nx.scale(sum(inter_terms[1:], inter_terms[0]), 1.0 / len(inter_terms))
        total = main + nx.scale(inter, cfg.lambda_inter)
        report["ctc_inter"] = float(inter.data)
    report["total"] = float(total.data)
    return total, report


def train_aligner(
    corpus: list[tuple[np.ndarray, np.ndarray]],
    config: AlignerConfig,
    steps: int = 1500,
    batch_size: int = 16,
    lr: float = 3e-3,
    seed: int = 0,
    log_every: int = 0,
) -> AlignerModel:
    """Train the toy CTC model; aborts on divergence."""
    rng = np.random.default_rng(seed)
    model = AlignerModel(config, rng)
    opt = nx.Adam(model.params, lr=lr)
    observed = np.zeros(config.vocab_size, dtype=np.int64)
    for frames, tokens in corpus:
        if frames.shape[0] < ctc_required_frames(np.asarray(tokens)):
            raise InfeasibleError("train_aligner: corpus contains an infeasible utterance")
    for step in range(steps):
        idx = rng.integers(0, len(corpus), size=min(batch_size, len(corpus)))
        batch = [corpus[i] for i in idx]
        column_mask = None
        if config.use_curriculum:
            batch_targets = np.concatenate([tokens for _, tokens in batch])
            vocab = curriculum_subset(
                step, observed, batch_targets, config.vocab_size, config.curriculum
            )
            column_mask = vocab.column_mask()
            np.add.at(observed, batch_targets, 1)
        opt.zero_grad()
        loss, report = aligner_batch_loss(model, batch, column_mask)
        if not np.isfinite(loss.data):
            raise NumericalAbort(f"train_aligner: loss diverged at step {step}: {report}")
        loss.backward()
        opt.step()
        if log_every and step % log_every == 0:
            print(f"aligner step {step}: {report}")
    return model


def alignment_accuracy(
    model: AlignerModel,
    corpus: list[tuple[np.ndarray, np.ndarray]],
    truth: list[np.ndarray],
    tolerance: int = 1,
) -> float:
    """Fraction of tokens aligned within ``tolerance`` frames of ground truth."""
    hit = 0
    total = 0
    for (frames, tokens), p_true in zip(corpus, truth):
        p_hat = model.align(frames, tokens).positions
        hit += int(np.sum(np.abs(p_hat - np.asarray(p_true)) <= tolerance))
        total += len(p_true)
    return hit / max(total, 1)


# ---------------------------------------------------------------------------
# Alignment cache file: magic, record count, then (id, L, T, p) records,
# all little-endian int32
# ---------------------------------------------------------------------------

ALIGN_CACHE_MAGIC = b"TADAAC1"


def save_alignment_cache(path, records: dict[int, tuple[int, np.ndarray]]) -> None:
    import struct

    with open(path, "wb") as f:
        f.write(ALIGN_CACHE_MAGIC)
        f.write(struct.pack("<I", len(records)))
        for utt_id, (T, p) in records.items():
            p = np.asarray(p, dtype="<i4")
            f.write(struct.pack("<iii", int(utt_id), int(p.size), int(T)))
            f.write(p.tobytes())


def load_alignment_cache(path) -> dict[int, tuple[int, np.ndarray]]:
    """Read a cache written by :func:`save_alignment_cache`; a wrong magic,
    a truncated record or trailing bytes raise :class:`ValidationError`."""
    import struct

    out: dict[int, tuple[int, np.ndarray]] = {}
    with open(path, "rb") as f:
        magic = f.read(len(ALIGN_CACHE_MAGIC))
        if magic != ALIGN_CACHE_MAGIC:
            raise ValidationError(f"{path}: bad magic {magic!r}, expected {ALIGN_CACHE_MAGIC!r}")
        (count,) = struct.unpack("<I", read_exact(f, 4, path))
        for _ in range(count):
            utt_id, L, T = struct.unpack("<iii", read_exact(f, 12, path))
            p = np.frombuffer(read_exact(f, 4 * L, path), dtype="<i4").astype(np.int64)
            out[utt_id] = (T, p)
        if f.read(1):
            raise ValidationError(f"{path}: trailing bytes after {count} records")
    return out
