"""Oracle-based evaluation and throughput benchmarking.

Token error rate is the normalized edit distance between the oracle-decoded
transcript of the synthesized frames and the target tokens; speaker quality
is the cosine between the oracle's least-squares speaker estimate and the
prompt speaker's ground-truth hum direction. All report lines are
machine-parseable ``key=value`` pairs, one metric per line.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from ..backbone import BackboneModel
from ..codec import CodecModel
from ..pipeline import GenerationResult, GenParams, Prompt, SpeakerHead, generate, stream_synthesize
from .corpus import OracleDecoder, TemplateBank


def edit_distance(a, b) -> int:
    """Levenshtein distance between two token sequences."""
    a = list(a)
    b = list(b)
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, y in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y))
        prev = cur
    return prev[-1]


@dataclass
class MetricsReport:
    token_error_rate: float = 0.0
    speaker_cosine: float = 0.0
    chain_rate: float = 0.0
    n_utterances: int = 0
    prefill_time: float = 0.0
    idle_step_time: float = 0.0
    llm_step_time: float = 0.0
    flow_sample_time: float = 0.0
    decode_time: float = 0.0
    steps_per_sec: float = 0.0

    def to_lines(self) -> list[str]:
        """One ``key=value`` line per field, in field order."""
        return [f"{k}={v:.6g}" for k, v in asdict(self).items()]


@dataclass
class EvalCase:
    prompt: Prompt
    target_text: np.ndarray
    result: GenerationResult
    audio_signal: np.ndarray  # (T, r) per-frame signal rows
    decode_time: float = 0.0


def evaluate(cases: list[EvalCase], bank: TemplateBank) -> MetricsReport:
    """Score generated utterances against the synthetic oracle."""
    decoder = OracleDecoder(bank)
    total_edit = 0
    total_len = 0
    cosines = []
    chains = []
    llm_times = []
    flow_times = []
    decode_times = []
    for case in cases:
        hyp, _ = decoder.decode(case.audio_signal)
        total_edit += edit_distance(hyp.tolist(), case.target_text.tolist())
        total_len += case.target_text.size
        est = decoder.speaker_estimate(case.audio_signal)
        if case.prompt.speaker is None:
            raise ValueError("evaluate: need the prompt's speaker id")
        ref_dir = bank.speaker_signal_profile(case.prompt.speaker)
        cosines.append(float(est @ ref_dir / (np.linalg.norm(ref_dir) + 1e-12)))
        chains.append(case.result.chain_rate)
        llm_times.extend(s.llm_time for s in case.result.step_stats)
        flow_times.extend(s.flow_time for s in case.result.step_stats)
        decode_times.append(case.decode_time)
    n_steps = max(len(llm_times), 1)
    total_time = sum(llm_times) + sum(flow_times)
    return MetricsReport(
        token_error_rate=total_edit / max(total_len, 1),
        speaker_cosine=float(np.mean(cosines)) if cosines else 0.0,
        chain_rate=float(np.mean(chains)) if chains else 0.0,
        n_utterances=len(cases),
        prefill_time=float(np.mean([c.result.prefill_time for c in cases])) if cases else 0.0,
        idle_step_time=float(np.mean([c.result.idle_step_time for c in cases])) if cases else 0.0,
        llm_step_time=float(np.mean(llm_times)) if llm_times else 0.0,
        flow_sample_time=float(np.mean(flow_times)) if flow_times else 0.0,
        decode_time=float(np.mean(decode_times)) if decode_times else 0.0,
        steps_per_sec=n_steps / total_time if total_time > 0 else 0.0,
    )


def run_tts_cases(
    lm: BackboneModel,
    codec_model: CodecModel,
    speaker_head: SpeakerHead,
    prompts: list[Prompt],
    targets: list[np.ndarray],
    params: GenParams,
) -> list[EvalCase]:
    """Generate and stream-synthesize one case per (prompt, target text)."""
    cases = []
    for i, (prompt, text) in enumerate(zip(prompts, targets)):
        run_params = replace(params, seed=params.seed + i)
        result = generate(lm, codec_model, speaker_head, prompt, text, run_params)
        t0 = time.perf_counter()
        audio = stream_synthesize(result, codec_model)
        dt = time.perf_counter() - t0
        cases.append(
            EvalCase(
                prompt=prompt,
                target_text=np.asarray(text),
                result=result,
                audio_signal=audio.signal,
                decode_time=dt,
            )
        )
    return cases


def benchmark(
    lm: BackboneModel,
    codec_model: CodecModel,
    speaker_head: SpeakerHead,
    prompts: list[Prompt],
    targets: list[np.ndarray],
    n_fm_list: tuple[int, ...] = (2, 4, 10, 20),
    runs: int = 3,
    seed: int = 0,
) -> dict[int, dict[str, float]]:
    """Wall-clock trends across flow sampling step counts: for each N, the
    per-token flow and LLM times (means over ``runs`` runs, with their
    across-run variance) and the steps per second.
    """
    per_n: dict[int, dict[str, float]] = {}
    for n_fm in n_fm_list:
        flow_means = []
        llm_means = []
        sps = []
        for r in range(runs):
            params = GenParams(n_fm=n_fm, seed=seed + r)
            cases = run_tts_cases(lm, codec_model, speaker_head, prompts, targets, params)
            llm_times = [s.llm_time for c in cases for s in c.result.step_stats]
            flow_times = [s.flow_time for c in cases for s in c.result.step_stats]
            flow_means.append(float(np.mean(flow_times)))
            llm_means.append(float(np.mean(llm_times)))
            total = sum(llm_times) + sum(flow_times)
            sps.append(len(llm_times) / total if total > 0 else 0.0)
        per_n[n_fm] = {
            "flow_time": float(np.mean(flow_means)),
            "flow_time_var": float(np.var(flow_means)),
            "llm_time": float(np.mean(llm_means)),
            "llm_time_var": float(np.var(llm_means)),
            "steps_per_sec": float(np.mean(sps)),
        }
    return per_n
