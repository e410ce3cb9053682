"""CTC training and Viterbi forced alignment on synthetic frames.

The alignment objective is the max-sum program

    p = argmax_{1 <= p_1 < ... < p_L <= T}  sum_i y[p_i, w_i]

solved by dynamic programming with suffix-maximum acceleration in O(L*T),
ties broken toward the earliest feasible position sequence. CTC likelihood
uses the standard log-domain forward recursion, run on a batch's lattices at
once; its gradient is the alpha-beta occupancy, exposed to the autodiff
engine as a custom primitive. One recursion serves both passes: the backward
(beta) pass is the forward one run on the lattices reversed in time and
labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from . import numerics as nx
from .configline import check, ranged
from .errors import InfeasibleError, ValidationError
from .numerics import Tensor

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


DEFAULT_SCHEDULE: dict[int, int | None] = {0: 64, 5000: 256, 20000: None}


def curriculum_subset(
    step: int,
    observed: np.ndarray,
    batch_targets,
    vocab_size: int,
    schedule: dict[int, int | None] | None = None,
) -> np.ndarray:
    """The ``(vocab_size + 1,)`` boolean column mask of the CTC loss at a
    step: the most-frequent observed indices up to the schedule cap, plus
    the current batch targets and blank (the last column).

    ``observed`` is a per-index occurrence count; the cap for a step is the
    entry of the latest schedule threshold not exceeding it, with ``None``
    meaning the full vocabulary.
    """
    if step < 0:
        raise ValidationError(f"curriculum step must be >= 0, got {step}")
    schedule = DEFAULT_SCHEDULE if schedule is None else schedule
    cap = None
    for threshold in sorted(schedule):
        if step >= threshold:
            cap = schedule[threshold]
    mask = np.zeros(vocab_size + 1, dtype=bool)
    if cap is None:
        mask[:vocab_size] = True
    else:
        observed = np.asarray(observed)
        seen = np.flatnonzero(observed > 0)
        # Sort by descending count, index ascending on ties, keep the top cap.
        mask[seen[np.lexsort((seen, -observed[seen]))][:cap]] = True
    mask[np.asarray(batch_targets, dtype=np.int64).ravel()] = True
    mask[vocab_size] = True
    return mask


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


def _skips(labels: np.ndarray, blank: int) -> np.ndarray:
    """Which states s >= 2 of each row of extended labels a path may enter
    from s - 2, skipping a blank."""
    skip = np.zeros(labels.shape, dtype=bool)
    skip[:, 2:] = (labels[:, 2:] != blank) & (labels[:, 2:] != labels[:, :-2])
    return skip


def _ctc_lattice(emit: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """The CTC recursion on a batch of lattices at once. ``emit`` is (T, B,
    S): entry (t, b, s) is utterance b's score at frame t for its extended
    label s, and -inf past its frames or its labels. ``skip`` is (B, S), as
    :func:`_skips` gives it. Entry (t, b, s) of the result sums every path
    prefix of utterance b through frame t - 1 that may step to state s at
    frame t, before the emission at (t, b, s).

    It is alpha minus the emission. Run on each utterance reversed in time
    and labels, padded at the end, it is beta mirrored: the sum over path
    suffixes after frame t, exactly. Each entry is the same sum of the same
    terms as when an utterance runs alone.
    """
    lattice = np.full(emit.shape, NEG_INF)
    lattice[0, :, :2] = 0.0
    for t in range(1, emit.shape[0]):
        prev = lattice[t - 1] + emit[t - 1]
        cur = lattice[t]
        cur[:, 0] = prev[:, 0]
        np.logaddexp(prev[:, 1:], prev[:, :-1], out=cur[:, 1:])
        np.logaddexp(cur[:, 2:], prev[:, :-2], out=cur[:, 2:], where=skip[:, 2:])
    return lattice


def ctc_log_likelihood(log_probs, targets, lengths=None) -> Tensor:
    """Log of the summed probability over all valid CTC paths.

    ``log_probs`` is (T, V+1) with the last column the blank, and target
    ids lie in [0, V); differentiable with the alpha-beta occupancy as
    gradient. Infeasible target lengths raise instead of silently returning
    -inf. With ``lengths``, the rows are consecutive sequences of those
    lengths, ``targets`` holds one target sequence for each, and the result
    is the vector of their log-likelihoods. All sequences run as one batch
    of lattices. The recursions run in float64; the likelihoods and their
    gradient take the dtype of ``log_probs``.
    """
    y_t = log_probs if isinstance(log_probs, Tensor) else nx.tensor(log_probs)
    y = y_t.data
    if y.ndim != 2 or y.shape[0] < 1:
        raise ValidationError(f"ctc_log_likelihood: logits must be (T, V+1), got {y.shape}")
    blank = y.shape[1] - 1
    packed = lengths is not None
    if not packed:
        lengths, targets = [y.shape[0]], [targets]
    if len(targets) != len(lengths) or sum(lengths) != y.shape[0]:
        raise ValidationError(
            f"ctc_log_likelihood: {len(targets)} target sequences and lengths {list(lengths)} "
            f"do not match {y.shape[0]} rows"
        )
    labs = []
    for T, tg in zip(lengths, targets):
        if T < 1:
            raise ValidationError(f"ctc_log_likelihood: each sequence needs at least one frame, got lengths {list(lengths)}")
        tg = np.asarray(tg, dtype=np.int64)
        if tg.size and (tg.min() < 0 or tg.max() >= blank):
            raise ValidationError(f"ctc_log_likelihood: target id out of range: ids must lie in [0, {blank})")
        required = ctc_required_frames(tg)
        if T < required:
            raise InfeasibleError(
                f"ctc_log_likelihood: {T} frames cannot emit {tg.size} targets "
                f"({required} required emission steps)"
            )
        labs.append(_extend_with_blanks(tg, blank))
    lengths = np.asarray(lengths, dtype=np.int64)
    sizes = np.array([lab.size for lab in labs])
    batch = np.arange(len(labs))
    labels = np.full((len(labs), sizes.max()), blank, dtype=np.int64)
    mirrored = labels.copy()  # each row's labels reversed
    for i, lab in enumerate(labs):
        labels[i, : lab.size] = lab
        mirrored[i, : lab.size] = lab[::-1]
    # The (frame, utterance, state) entries inside each utterance's lattice,
    # their rows and columns of ``y``, and the same entries mirrored.
    valid = (np.arange(lengths.max())[:, None, None] < lengths[:, None]) & (np.arange(sizes.max()) < sizes[:, None])
    t, b, s = np.nonzero(valid)
    rows, cols = np.cumsum(lengths)[b] - lengths[b] + t, labels[b, s]
    mirror = (lengths[b] - 1 - t, b, sizes[b] - 1 - s)
    emit = np.full(valid.shape, NEG_INF)
    emit[valid] = y[rows, cols]
    alpha = _ctc_lattice(emit, _skips(labels, blank)) + emit
    last = alpha[lengths - 1, batch, sizes - 1]
    loglik = np.where(sizes > 1, np.logaddexp(alpha[lengths - 1, batch, np.maximum(sizes - 2, 0)], last), last)
    out = loglik.astype(y.dtype)

    def backward(g):
        emit_r = np.full(valid.shape, NEG_INF)
        emit_r[mirror] = emit[valid]
        beta = _ctc_lattice(emit_r, _skips(mirrored, blank))[mirror]
        occupancy = np.exp(alpha[valid] + beta - loglik[b])
        grad = np.zeros_like(y)
        np.add.at(grad, (rows, cols), occupancy)
        grad *= np.repeat(np.broadcast_to(g, out.shape), lengths)[:, None]
        if y_t.requires_grad:
            y_t.grad = grad if y_t.grad is None else y_t.grad + grad

    return nx.custom_op("ctc_log_likelihood", out if packed else out.reshape(()), (y_t,), backward)


# ---------------------------------------------------------------------------
# Viterbi max-sum alignment
# ---------------------------------------------------------------------------


def viterbi_align(log_probs: np.ndarray, tokens) -> Alignment:
    """Positions maximizing sum_i y[p_i, w_i] over strictly increasing p.

    Suffix dynamic program: e[i][t] is the best score of placing tokens
    i..L with p_i = t. The suffix maxima of each row, a reversed cumulative
    maximum, give O(L*T). The earliest argmax of a suffix is its first
    record frame, one whose score equals its own suffix maximum, found by a
    reversed cumulative minimum; this yields the lexicographically smallest
    optimal sequence.
    """
    y = np.asarray(log_probs, dtype=np.float64)
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.size == 0:
        raise ValidationError("viterbi_align: tokens must be non-empty")
    T = y.shape[0]
    L = tokens.size
    if L > T:
        raise InfeasibleError(f"viterbi_align: {L} tokens cannot align to {T} frames")

    # e[i] over frame t (0-based); feasible t in [i, T - (L-1-i) - 1].
    e = np.full((L, T), NEG_INF)
    best_val = np.empty((L, T))  # max of e[i][t:]
    best_at = np.empty((L, T), dtype=np.int64)  # earliest argmax of e[i][t:]
    frames = np.arange(T)
    for i in range(L - 1, -1, -1):
        hi = T - (L - 1 - i)
        e[i, i:hi] = y[i:hi, tokens[i]]
        if i < L - 1:
            e[i, i:hi] += best_val[i + 1, i + 1 : hi + 1]
        best_val[i] = np.maximum.accumulate(e[i, ::-1])[::-1]
        record_frames = np.where(e[i] == best_val[i], frames, T)
        best_at[i] = np.minimum.accumulate(record_frames[::-1])[::-1]

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
MAX_RUN = 3


def filter_alignment(p, T: int) -> str | None:
    """Return a drop reason or None to keep.

    Drops "consecutive-run" when successive aligned positions occupy more
    than ``MAX_RUN`` consecutive frames, and "gap" when any position
    difference, the leading offset p_1, or the trailing slack T - p_L
    exceeds ``MAX_GAP``. Whether the gaps also fit a backbone's duration
    bits is :func:`tada.durbits.fits_bits`.
    """
    p = np.asarray(p, dtype=np.int64)
    if p.size == 0:
        raise ValidationError("filter_alignment: empty alignment")
    run = 1
    for d in np.diff(p).tolist():
        run = run + 1 if d == 1 else 1
        if run > MAX_RUN:
            return "consecutive-run"
    if p[0] > MAX_GAP or (T - p[-1]) > MAX_GAP:
        return "gap"
    if p.size > 1 and int(np.diff(p).max()) > MAX_GAP:
        return "gap"
    return None


# ---------------------------------------------------------------------------
# Toy acoustic CTC model
# ---------------------------------------------------------------------------


@dataclass
class AlignerConfig:
    d_in: int = ranged(16, 1)
    d_model: int = ranged(64, 1)
    n_heads: int = ranged(4, 1)
    d_ff: int = ranged(128, 1)
    vocab_size: int = ranged(32, 1)
    n_graphemes: int = ranged(8, 1)
    lambda_inter: float = ranged(0.3, 0)
    use_curriculum: bool = True

    def __post_init__(self):
        check(self)


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

    def forward(self, frames, lengths=None) -> tuple[Tensor, Tensor]:
        """Raw main logits (T, V+1) and intermediate logits (T, G+1).

        The rows are consecutive utterances of the given ``lengths``
        (default: one), and each is computed as if alone: its local mixers
        see zero rows past its ends and its attention stays inside it.
        """
        x = nn.input_tensor(self.params, frames)
        lengths = [x.shape[0]] if lengths is None else list(lengths)
        x = nn.linear(self.params, "in_proj", x)
        x = x + nn.local_mix(self.params, "mix0", x, lengths)
        x = x + nn.local_mix(self.params, "mix1", x, lengths)
        mask = [nn.full_mask(n) for n in lengths]
        positions = nn.sequence_positions(lengths)
        x = nn.block(self.params, "enc/layer0", x, mask, self.tf, positions)
        inter = nn.linear(self.params, "head_inter", x)
        x = nn.block(self.params, "enc/layer1", x, mask, self.tf, positions)
        x = nn.ln(self.params, "enc/ln_out", x)
        return nn.linear(self.params, "head_main", x), inter

    def log_probs(self, frames, lengths=None) -> np.ndarray:
        """Log-softmax-normalized CTC scores for alignment extraction;
        ``lengths`` as in :meth:`forward`."""
        with nx.no_grad():
            logits, _ = self.forward(frames, lengths)
            return nx.log_softmax(logits).data

    def align(self, frames, tokens) -> Alignment:
        return self.align_batch([(frames, tokens)])[0]

    def align_batch(self, pairs: list[tuple[np.ndarray, np.ndarray]]) -> list[Alignment]:
        """The Viterbi alignment of every (frames, tokens) pair: one packed
        forward, then Viterbi per utterance."""
        lengths = [np.shape(frames)[0] for frames, _ in pairs]
        logp = self.log_probs(np.concatenate([frames for frames, _ in pairs]), lengths)
        ends = np.cumsum(lengths)
        return [viterbi_align(logp[end - n : end], tokens) for (_, tokens), n, end in zip(pairs, lengths, ends)]

    def save(self, path) -> None:
        nn.save_params(path, self.params, self.config)

    @classmethod
    def load(cls, path, dtype=None) -> "AlignerModel":
        config, params = nn.load_params(path, AlignerConfig, dtype)
        nn.check_params(path, params, lambda: cls(config, np.random.default_rng(0)).params)
        return cls(config, rng=np.random.default_rng(0), params=params)


def aligner_batch_loss(
    model: AlignerModel,
    batch: list[tuple[np.ndarray, np.ndarray]],
    column_mask: np.ndarray | None = None,
) -> tuple[Tensor, dict]:
    """Mean CTC loss over the batch: main + lambda_inter * intermediate.

    The batch runs as one packed forward; each utterance's CTC terms come
    from its own rows, and each term is the mean over the utterances.
    """
    cfg = model.config
    lengths = [np.shape(frames)[0] for frames, _ in batch]
    logits, inter_logits = model.forward(np.concatenate([frames for frames, _ in batch]), lengths)

    def mean_ctc(logp: Tensor, targets: list) -> Tensor:
        return nx.scale(nx.sum_(ctc_log_likelihood(logp, targets, lengths=lengths)), -1.0 / len(batch))

    mask = None if column_mask is None else np.broadcast_to(column_mask, logits.shape)
    main = total = mean_ctc(nx.log_softmax(logits, mask=mask), [tokens for _, tokens in batch])
    report = {"ctc": float(main.data)}
    if cfg.lambda_inter > 0.0:
        graphemes = [np.asarray(tokens) % cfg.n_graphemes for _, tokens in batch]
        inter = mean_ctc(nx.log_softmax(inter_logits), graphemes)
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
    observed = np.zeros(config.vocab_size, dtype=np.int64)
    for frames, tokens in corpus:
        if frames.shape[0] < ctc_required_frames(np.asarray(tokens)):
            raise InfeasibleError("train_aligner: corpus contains an infeasible utterance")

    def loss(step: int, idx: np.ndarray) -> tuple[Tensor, dict]:
        batch = [corpus[i] for i in idx]
        column_mask = None
        if config.use_curriculum:
            batch_targets = np.concatenate([tokens for _, tokens in batch])
            column_mask = curriculum_subset(step, observed, batch_targets, config.vocab_size)
            np.add.at(observed, batch_targets, 1)
        return aligner_batch_loss(model, batch, column_mask)

    nx.fit("train_aligner", model.params, loss, len(corpus), steps, batch_size, lr, rng, log_every)
    return model


def alignment_accuracy(positions: list[np.ndarray], truth: list[np.ndarray], tolerance: int = 1) -> float:
    """Fraction of tokens whose predicted position lies within ``tolerance``
    frames of the ground truth, over every utterance."""
    hit = sum(int(np.sum(np.abs(np.asarray(p) - np.asarray(t)) <= tolerance)) for p, t in zip(positions, truth))
    return hit / max(sum(len(t) for t in truth), 1)

