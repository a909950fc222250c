"""Dataclass configuration with YAML/JSON loading and strict validation.

Every knob the CLI exposes lives here.  Validation reports the dotted
path of the offending field so config errors are actionable; the CLI
maps ConfigurationError to exit code 2.  yaml is imported by load_config
only once it has a config file's text to parse, so a run on the default
config never loads it.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from .complexity import COCO_LEVEL_DIMS, level_hw


class ConfigurationError(ValueError):
    """A config value is missing, mistyped, or out of range."""


VARIANT_BASE_TAGS = ("sdtp", "fpn_baseline", "dilated_c5", "no_interaction")
ARF_MODES = ("softmax", "tanh", "arf")
POS_EMBED_MODES = ("sinusoidal", "learned", "none")
_SINGLE_INPUT = re.compile(r"single_input_([2-5])")


@dataclass
class ArfConfig:
    tau: float = 2.0
    mode: str = "arf"


@dataclass
class IspConfig:
    rates: tuple[int, ...] = (1, 3, 6)
    heads: int = 8
    pos_embed: str = "sinusoidal"
    blocks: int = 1


@dataclass
class CdiConfig:
    heads: int = 8
    lam: float = 0.01  # serialized as "lambda"
    levels: tuple[int, ...] = (2, 3, 4, 5)


@dataclass
class TrainConfig:
    steps: int = 200
    lr: float = 0.1
    channels: int = 8
    base_hw: tuple[int, int] = (8, 8)
    levels: tuple[int, ...] = (4, 5)


@dataclass
class GradCheckConfig:
    points: int = 10
    tolerance: float = 1e-4
    step: float = 1e-5


@dataclass
class ComplexityConfig:
    """Dims for the analytic attention-cost report; defaults are the
    standard detection setting, complexity.COCO_LEVEL_DIMS."""

    dims: tuple[tuple[int, int], ...] = tuple((d.h, d.w) for d in COCO_LEVEL_DIMS)
    channels: int = COCO_LEVEL_DIMS[0].c
    strides: tuple[int, ...] = tuple(d.s for d in COCO_LEVEL_DIMS)


@dataclass
class PipelineConfig:
    variant: str = "sdtp"
    seed: int = 0
    channels: int = 256
    in_channels: int = 256
    base_hw: tuple[int, int] = (64, 64)
    arf: ArfConfig = field(default_factory=ArfConfig)
    isp: IspConfig = field(default_factory=IspConfig)
    cdi: CdiConfig = field(default_factory=CdiConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    gradcheck: GradCheckConfig = field(default_factory=GradCheckConfig)
    complexity: ComplexityConfig = field(default_factory=ComplexityConfig)

    def __post_init__(self):
        self.validate()

    # -- derived views ----------------------------------------------------

    def level_dims(self) -> dict[int, tuple[int, int]]:
        """Spatial dims per level: base_hw at the shallowest level, then
        ceil-halved per deeper level (complexity.level_hw)."""
        return {lvl: level_hw(*self.base_hw, k) for k, lvl in enumerate(self.cdi.levels)}

    def single_input_level(self) -> int | None:
        m = _SINGLE_INPUT.fullmatch(self.variant)
        return int(m.group(1)) if m else None

    def shrink(self, channels: int, base_hw: tuple[int, int],
               levels: tuple[int, ...]) -> "PipelineConfig":
        """The same config at other dims: input and embed width `channels`,
        shallowest level `base_hw`, pyramid `levels`.  Each stage keeps the
        largest head count up to its own that divides the new width.  The
        result shares no section object with this config."""
        base = copy.deepcopy(self)
        return dataclasses.replace(
            base, channels=channels, in_channels=channels, base_hw=base_hw,
            isp=dataclasses.replace(base.isp, heads=fit_heads(base.isp.heads, channels)),
            cdi=dataclasses.replace(base.cdi, heads=fit_heads(base.cdi.heads, channels),
                                    levels=levels))

    @classmethod
    def for_train(cls, base: "PipelineConfig") -> "PipelineConfig":
        """Shrink the full pipeline to the toy-training dims (identity regression)."""
        return dataclasses.replace(base, variant="sdtp").shrink(
            base.train.channels, base.train.base_hw, base.train.levels)

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        if not isinstance(self.variant, str) or not (
                self.variant in VARIANT_BASE_TAGS or _SINGLE_INPUT.fullmatch(self.variant)):
            raise ConfigurationError(
                f"variant: {self.variant!r} is not one of {VARIANT_BASE_TAGS} or single_input_<level>")
        _check_int("seed", self.seed, low=0)
        _check_int("channels", self.channels, low=1)
        _check_int("in_channels", self.in_channels, low=1)
        self.base_hw = _check_hw("base_hw", self.base_hw)

        _check_choice("arf.mode", self.arf.mode, ARF_MODES)
        _check_float("arf.tau", self.arf.tau)

        self.isp.rates = _check_int_tuple("isp.rates", self.isp.rates, low=1)
        if not self.isp.rates or self.isp.rates[0] != 1:
            raise ConfigurationError(f"isp.rates: first rate must be 1, got {list(self.isp.rates)}")
        _check_int("isp.heads", self.isp.heads, low=1)
        if self.channels % self.isp.heads:
            raise ConfigurationError(
                f"isp.heads: {self.isp.heads} does not divide channels={self.channels}")
        _check_choice("isp.pos_embed", self.isp.pos_embed, POS_EMBED_MODES)
        _check_int("isp.blocks", self.isp.blocks, low=0)

        _check_int("cdi.heads", self.cdi.heads, low=1)
        if self.channels % self.cdi.heads:
            raise ConfigurationError(
                f"cdi.heads: {self.cdi.heads} does not divide channels={self.channels}")
        _check_float("cdi.lambda", self.cdi.lam)
        self.cdi.levels = _check_levels("cdi.levels", self.cdi.levels)

        lvl = self.single_input_level()
        if lvl is not None and lvl not in self.cdi.levels:
            raise ConfigurationError(
                f"variant: single_input level {lvl} not in cdi.levels={list(self.cdi.levels)}")

        _check_int("train.steps", self.train.steps, low=1)
        _check_float("train.lr", self.train.lr)
        _check_int("train.channels", self.train.channels, low=1)
        self.train.base_hw = _check_hw("train.base_hw", self.train.base_hw)
        self.train.levels = _check_levels("train.levels", self.train.levels)

        _check_int("gradcheck.points", self.gradcheck.points, low=1)
        _check_float("gradcheck.tolerance", self.gradcheck.tolerance, positive=True)
        _check_float("gradcheck.step", self.gradcheck.step, positive=True)

        _check_int("complexity.channels", self.complexity.channels, low=1)
        _check_list("complexity.dims", self.complexity.dims)
        if not self.complexity.dims:
            raise ConfigurationError("complexity.dims: needs at least one level, got []")
        dims = tuple(_check_hw(f"complexity.dims[{k}]", d) for k, d in enumerate(self.complexity.dims))
        self.complexity.dims = dims
        self.complexity.strides = _check_int_tuple("complexity.strides", self.complexity.strides, low=1)
        if len(self.complexity.strides) != len(dims):
            raise ConfigurationError(
                f"complexity.strides: expected one per complexity.dims entry ({len(dims)}), "
                f"got {len(self.complexity.strides)}")

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["cdi"] = {_SERIALIZED.get(k, k): v for k, v in d["cdi"].items()}
        return d


def fit_heads(heads: int, channels: int) -> int:
    """The largest head count up to `heads` that divides `channels` (1 when
    `channels` < 1, which validation then rejects)."""
    h = max(1, min(heads, channels))
    while channels % h:
        h -= 1
    return h


def _check_int(path: str, v, low: int | None = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigurationError(f"{path}: expected an integer, got {v!r}")
    if low is not None and v < low:
        raise ConfigurationError(f"{path}: must be >= {low}, got {v}")
    return v


def _check_float(path: str, v, positive: bool = False) -> None:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigurationError(f"{path}: expected a number, got {v!r}")
    if not math.isfinite(v) or v < 0 or (positive and v == 0):
        raise ConfigurationError(
            f"{path}: must be finite and {'> 0' if positive else '>= 0'}, got {v}")


def _check_choice(path: str, v, choices: tuple[str, ...]) -> None:
    if not isinstance(v, str) or v not in choices:
        raise ConfigurationError(f"{path}: {v!r} not in {choices}")


def _check_list(path: str, v) -> None:
    if not isinstance(v, (list, tuple)):
        raise ConfigurationError(f"{path}: expected a list, got {v!r}")


def _check_int_tuple(path: str, v, low: int) -> tuple[int, ...]:
    _check_list(path, v)
    return tuple(_check_int(f"{path}[{k}]", x, low=low) for k, x in enumerate(v))


def _check_hw(path: str, v) -> tuple[int, int]:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise ConfigurationError(f"{path}: expected [h, w], got {v!r}")
    return (_check_int(f"{path}[0]", v[0], low=1), _check_int(f"{path}[1]", v[1], low=1))


def _check_levels(path: str, v) -> tuple[int, ...]:
    levels = _check_int_tuple(path, v, low=2)
    if not levels:
        raise ConfigurationError(f"{path}: needs at least one level, got []")
    if any(lvl > 5 for lvl in levels):
        raise ConfigurationError(f"{path}: levels live in 2..5, got {list(levels)}")
    if list(levels) != sorted(set(levels)):
        raise ConfigurationError(f"{path}: levels must be strictly ascending, got {list(levels)}")
    if any(b - a != 1 for a, b in zip(levels, levels[1:])):
        raise ConfigurationError(f"{path}: levels must be consecutive, got {list(levels)}")
    return levels


# section name -> its dataclass: the PipelineConfig fields built by a factory
_SECTION_TYPES = {f.name: f.default_factory for f in dataclasses.fields(PipelineConfig)
                  if f.default_factory is not dataclasses.MISSING}

# dataclass field -> YAML key, for names Python reserves; the field name
# itself is not a YAML key
_SERIALIZED = {"lam": "lambda"}


def config_from_dict(raw: dict) -> PipelineConfig:
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config root must be a mapping, got {type(raw).__name__}")
    kwargs = {}
    top_fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    for key, value in raw.items():
        if key in _SECTION_TYPES:
            if not isinstance(value, dict):
                raise ConfigurationError(f"{key}: expected a mapping, got {value!r}")
            cls = _SECTION_TYPES[key]
            sect_fields = {_SERIALIZED.get(f.name, f.name): f.name
                           for f in dataclasses.fields(cls)}
            sect_kwargs = {}
            for sk, sv in value.items():
                if sk not in sect_fields:
                    raise ConfigurationError(f"{key}.{sk}: unknown config key")
                sect_kwargs[sect_fields[sk]] = sv
            kwargs[key] = cls(**sect_kwargs)
        elif key in top_fields:
            kwargs[key] = value
        else:
            raise ConfigurationError(f"{key}: unknown config key")
    return PipelineConfig(**kwargs)


def load_config(path: str | Path | None) -> PipelineConfig:
    """Load a YAML (or JSON: it parses as YAML) config file; None -> defaults.
    A path that is missing, that cannot be read as a file (a directory),
    or whose bytes are not UTF-8 text raises ConfigurationError naming it."""
    if path is None:
        return PipelineConfig()
    p = Path(path)
    if not p.exists():
        raise ConfigurationError(f"config file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config file {p} is not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise ConfigurationError(f"config file {p} cannot be read: {exc.strerror}") from exc
    import yaml

    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"config file {p} is not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    return config_from_dict(raw)
