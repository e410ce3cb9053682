"""Default hyperparameters and the key=value config-file loader.

A config file is structured text: one ``key=value`` pair per line, ``#``
comments allowed. The keys are those of the checkpoint's config line under
each section (``configline.flat(Defaults())``), e.g. ``codec.lambda_mel=0.5``.
An unknown key (a typo), or a value outside its field's declared range
(``configline.ranged``) or not finite, is an error naming its line or flag.
The keys in ``FROM_CORPUS`` take only their default: the stages set them.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence
from pathlib import Path

from . import configline
from .aligner import AlignerConfig
from .backbone import BackboneConfig
from .codec import CodecConfig
from .errors import ValidationError
from .harness.corpus import SynthConfig
from .harness.recipes import TrainBudget


# The keys the training stages set from the manifest, or from the codec,
# whatever the config says; a setting of another value would be dropped.
FROM_CORPUS = {
    "aligner.d_in": "the manifest",
    "aligner.vocab_size": "the manifest",
    "codec.d_frame": "the manifest",
    "codec.vocab_size": "the manifest",
    "codec.samples_per_frame": "the manifest",
    "backbone.vocab_size": "the manifest",
    "backbone.d_latent": "the codec",
}


@dataclasses.dataclass
class Defaults:
    synth: SynthConfig = dataclasses.field(default_factory=SynthConfig)
    aligner: AlignerConfig = dataclasses.field(default_factory=AlignerConfig)
    codec: CodecConfig = dataclasses.field(default_factory=CodecConfig)
    backbone: BackboneConfig = dataclasses.field(default_factory=BackboneConfig)
    budget: TrainBudget = dataclasses.field(default_factory=TrainBudget)


def load_config(path: str | None = None, flags: Sequence[tuple[str, str, str]] = ()) -> Defaults:
    """``Defaults()`` with the lines of the file at ``path``, then the
    ``(flag, key, value)`` overrides in ``flags``, applied.

    Each section is built once by ``configline.build``, so every
    ``__post_init__`` runs on the final values. A setting that does not
    parse, is outside its field's range, fails its section's check, that the
    built config does not hold (a key that follows from others, such as
    ``backbone.flow.d_latent``), or that sets a ``FROM_CORPUS`` key to another
    value than its default raises ``ValidationError`` naming its line or flag.
    """
    settings = []
    if path is not None:
        lines = configline.utf8(Path(path).read_bytes(), path).splitlines()
        settings = [(f"config line {n}", line.split("#", 1)[0].strip()) for n, line in enumerate(lines, start=1)]
    settings += [(flag, f"{key}={value}") for flag, key, value in flags]

    base = Defaults()
    defaults = dict(configline.flat(base))
    values = {key: configline.text(value) for key, value in defaults.items()}
    given: dict[str, str] = {}  # key -> the line or flag that set it last
    for where, setting in settings:
        if not setting:
            continue
        key, sep, raw = (part.strip() for part in setting.partition("="))
        if not sep:
            raise ValidationError(f"{where}: expected key=value, got {setting!r}")
        if key not in defaults:
            raise ValidationError(f"{where}: unknown key {key!r}")
        try:
            values[key] = configline.text(configline.convert(defaults[key], raw))
        except ValueError:
            raise ValidationError(f"{where}: cannot parse {key}={raw!r}") from None
        if key in FROM_CORPUS and values[key] != configline.text(defaults[key]):
            raise ValidationError(
                f"{where}: {key}={values[key]} cannot be set; the stages take {key} from {FROM_CORPUS[key]}"
            )
        given[key] = where

    sections = {}
    for f in dataclasses.fields(Defaults):
        prefix = f.name + "."
        try:
            sections[f.name] = configline.build(type(getattr(base, f.name)), dict(values), prefix)
        except ValidationError as exc:
            set_by = ", ".join(where for key, where in given.items() if key.startswith(prefix))
            raise ValidationError(f"{set_by}: {exc}") from None
    config = Defaults(**sections)
    for key, value in configline.flat(config):
        if key in given and configline.text(value) != values[key]:
            raise ValidationError(
                f"{given[key]}: {key} follows from other keys; the built config holds "
                f"{key}={configline.text(value)}, not {values[key]}"
            )
    return config
