"""Line-oriented experiment configuration and the schema of its keys.

Format: one `section.key = value` per line, `#` starts a comment, blank
lines ignored.  Values are kept as strings and lists are comma-separated.
Serialization is canonical (sorted by section then key), so parse ->
serialize -> parse is the identity.  The format takes any key; SCHEMA
declares the keys the commands read, and `get` parses a value with its
declared type.
"""

import math
from dataclasses import dataclass, field

from .errors import ConfigError

REQUIRED = object()


def _convert(convert, expected: str):
    """A parser that applies convert and names the key when that fails or
    gives nan or +-inf."""
    def parse(raw, name):
        try:
            value = convert(raw)
        except ValueError:
            raise ConfigError(f"{name} must be {expected}, got {raw!r}") from None
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {raw!r}")
        return value
    return parse


def _str(raw, name):
    return raw


def _str_list(raw, name):
    return [item for item in (part.strip() for part in raw.split(",")) if item]


def _list_of(convert, expected: str):
    parse = _convert(convert, f"a comma-separated list of {expected}")
    return lambda raw, name: [parse(item, name) for item in _str_list(raw, name)]


def _int_or_auto(raw, name):
    raw = raw.strip().lower()
    return None if raw == "auto" else _convert(int, "an integer or 'auto'")(raw, name)


_int, _float = _convert(int, "an integer"), _convert(float, "a number")
_int_list, _float_list = _list_of(int, "integers"), _list_of(float, "numbers")

# "section.key" -> (parser, default, meaning).  A default is written as in a
# config file and parsed like a given value; None lets the key stay unset
# (get returns None), REQUIRED makes get fail without it.
SCHEMA = {
    "topology.kind": (_str, REQUIRED, "fully_connected, ring, clusters or edge_list"),
    "topology.m": (_int, REQUIRED, "clients; for edge_list optional, checked against the file"),
    "topology.t": (_float, None, "gossip step; unset: 1/3 ring, 0.2 clusters, edge_list needs it"),
    "topology.clusters": (_int, "4", "clusters"),
    "topology.bridge_weight": (_float, "1.0", "weight of the edges between clusters"),
    "topology.path": (_str, REQUIRED, "edge_list file, rows of `i j weight`"),
    "objective.kind": (_str, "logistic", "logistic or quadratic"),
    "objective.d": (_int, "2", "dimension"),
    "objective.n": (_int, "50", "logistic: samples per client"),
    "objective.heterogeneity_spread": (_float, "2.0", "logistic: spread of the client data"),
    "objective.lambda_reg": (_float, "0.1", "logistic: ridge weight"),
    "objective.seed": (_int, "0", "seed of the generated data"),
    "objective.scales": (_float_list, None, "quadratic: curvature per client; unset: generated"),
    "objective.centers": (_float_list, REQUIRED, "quadratic with scales: m*d center entries"),
    "objective.scale_min": (_float, "0.5", "generated quadratic: least curvature"),
    "objective.scale_max": (_float, "2.0", "generated quadratic: largest curvature"),
    "objective.spread": (_float, "1.0", "generated quadratic: scale of the centers"),
    "noise.variant": (_str, "none", "none, gaussian or minibatch"),
    "noise.sigma2": (_float, "1.0", "gaussian: variance per coordinate"),
    "noise.batch_size": (_int, "10", "minibatch: samples per step"),
    "run.algorithm": (_str, "dsgd", "dgd, dsgd, rr_dgd or rr_dsgd"),
    "run.gamma": (_float, REQUIRED, "step size"),
    "run.gammas": (_float_list, None, "compare: step sizes of the order fits, at least 3"),
    "run.T": (_int, "1000", "steps"),
    "run.seed": (_int, "0", "noise seed"),
    "run.replicates": (_int, "1", "replicates"),
    "run.burn_in": (_int_or_auto, "auto", "steps left out of the stationary moments"),
    "run.record_every": (_int, "1", "record stride of the trajectory files"),
    "run.coupling": (_str, "shared", "rr runs: shared or independent draws"),
    "sweep.m_list": (_int_list, REQUIRED, "client counts"),
    "sweep.topologies": (_str_list, REQUIRED, "topology kinds"),
    "sweep.gammas": (_float_list, REQUIRED, "step sizes"),
    "output.directory": (_str, ".", "output directory; --out wins"),
    "output.prefix": (_str, None, "file name prefix; unset: the command name"),
}


# ConfigError texts of _split for a config file line and a command-line
# override: no '=', no '.' in the key, an empty section or key
_LINE_ERRORS = (
    "line {where}: expected 'section.key = value', got {text!r}",
    "line {where}: key {lhs!r} must be section.key",
    "line {where}: empty section or key in {text!r}",
)
_OVERRIDE_ERRORS = (
    "override {text!r} must look like section.key=value",
    "override key {lhs!r} must be section.key",
    "override {text!r} has an empty part",
)


def _split(text: str, errors, where=None) -> tuple:
    """("section.key", value) of one `section.key = value` assignment, with
    the section, key and value stripped."""
    lhs, eq, rhs = text.partition("=")
    lhs = lhs.strip()
    section, dot, key = (part.strip() for part in lhs.partition("."))
    for failed, message in zip((not eq, not dot, not (section and key)), errors):
        if failed:
            raise ConfigError(message.format(where=where, text=text, lhs=lhs))
    return f"{section}.{key}", rhs.strip()


@dataclass
class ExperimentConfig:
    """Config entries as strings, keyed by their `section.key` name."""

    values: dict = field(default_factory=dict)

    @classmethod
    def parse(cls, text: str) -> "ExperimentConfig":
        cfg = cls()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                name, value = _split(raw, _LINE_ERRORS, lineno)
                cfg.values[name] = value
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        return cls.parse(text)

    def set(self, section: str, key: str, value) -> None:
        self.values[f"{section}.{key}"] = str(value)

    def update(self, other: "ExperimentConfig") -> None:
        """Overlay another config; its entries win."""
        self.values.update(other.values)

    def apply_assignment(self, assignment: str) -> None:
        """Apply one `section.key=value` override string."""
        name, value = _split(assignment, _OVERRIDE_ERRORS)
        self.values[name] = value

    def _sorted_names(self) -> list:
        # section then key: "a-b.k" sorts after "a.k", as section "a-b" does after "a"
        return sorted(self.values, key=lambda name: name.partition("."))

    def dumps(self) -> str:
        return "".join(f"{name} = {self.values[name]}\n" for name in self._sorted_names())

    def has(self, section: str, key: str) -> bool:
        return f"{section}.{key}" in self.values

    def check_keys(self) -> None:
        """Raise ConfigError for the first key, in sorted order, not in SCHEMA."""
        for name in self._sorted_names():
            if name not in SCHEMA:
                raise ConfigError(f"unknown config key {name}")

    def get(self, section: str, key: str):
        """The entry parsed with its declared type, else the declared default."""
        name = f"{section}.{key}"
        try:
            parse, default, _ = SCHEMA[name]
        except KeyError:
            raise ConfigError(f"unknown config key {name}") from None
        raw = self.values.get(name, default)
        if raw is REQUIRED:
            raise ConfigError(f"missing required config entry {name}")
        return None if raw is None else parse(raw, name)
