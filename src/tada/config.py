"""Default hyperparameters and the key=value config-file loader.

A config file is structured text: one ``key=value`` pair per line, ``#``
comments allowed. Keys use dotted sections matching the dataclass fields,
e.g. ``codec.lambda_mel=0.5`` or ``synth.vocab_size=48``; unknown keys are
an error so typos fail fast.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from .aligner import AlignerConfig
from .backbone import BackboneConfig
from .codec import CodecConfig
from .configline import convert
from .errors import ValidationError
from .harness.corpus import SynthConfig
from .harness.recipes import TrainBudget


@dataclasses.dataclass
class Defaults:
    synth: SynthConfig = dataclasses.field(default_factory=SynthConfig)
    aligner: AlignerConfig = dataclasses.field(default_factory=AlignerConfig)
    codec: CodecConfig = dataclasses.field(default_factory=CodecConfig)
    backbone: BackboneConfig = dataclasses.field(default_factory=BackboneConfig)
    budget: TrainBudget = dataclasses.field(default_factory=TrainBudget)


def apply_overrides(defaults: Defaults, lines: list[str]) -> Defaults:
    touched: dict[str, int] = {}  # section -> last line that set one of its fields
    for lineno, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if "." not in key:
            raise ValidationError(f"config line {lineno}: key must be section.field, got {key!r}")
        section, fname = key.split(".", 1)
        if section not in {f.name for f in dataclasses.fields(defaults)}:
            raise ValidationError(f"config line {lineno}: unknown section {section!r}")
        target = getattr(defaults, section)
        if fname not in {f.name for f in dataclasses.fields(target)}:
            raise ValidationError(f"config line {lineno}: unknown field {key!r}")
        try:
            value = convert(getattr(target, fname), raw)
        except ValueError:
            raise ValidationError(f"config line {lineno}: cannot parse {key}={raw!r}") from None
        setattr(target, fname, value)
        touched[section] = lineno
    # setattr skips __post_init__, so validate each changed section once all
    # of its lines are in (two lines may have to change together).
    for section, lineno in touched.items():
        check = getattr(getattr(defaults, section), "__post_init__", None)
        if check is not None:
            try:
                check()
            except ValidationError as exc:
                raise ValidationError(f"config section {section!r} (last set on line {lineno}): {exc}") from None
    return defaults


def load_config(path: str | None) -> Defaults:
    defaults = Defaults()
    if path is None:
        return defaults
    text = Path(path).read_text()
    return apply_overrides(defaults, text.splitlines())
