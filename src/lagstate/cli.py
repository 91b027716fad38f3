"""Command line front end: entropy sweeps, identity checks, state dumps.

``report`` sweeps k over a model and a submanifold (``MODELS``,
``SUBMANIFOLDS``), one row per k with the entropy, its deviation from the
closed-form entropy the state's builder records, the distance to the nearest
product vector, and the state's closed-form residual.  ``verify`` runs a
fixed list of cross-identity checks on the same rows, one against the
builder's closed-form distance (:func:`verify_identities`).  Both gate the
residuals in :func:`tolerance_breaches`, the one judge of the closed-form
defect and of the entropy's gap to its closed form.  Each row is written and
gated as it completes, so an error or an interrupt keeps the rows before it.
``state`` and ``gram`` dump a single state or Gram matrix and gate nothing;
``state``'s ``maximally_entangled`` verdict reads the model's entropy
tolerance.  ``gram``'s ``normalized_residual`` is an antidiagonal row's
``gram_residual``: both put the model's ``antidiagonal_gram`` through
:func:`linalg.identity_defect`.  Each subcommand accepts only the flags it
reads (``COMMAND_FLAGS``); any other flag is a usage error.  A call reads
its flags straight from the ``FLAGS`` table (:func:`_read_flags`); only a
call it cannot read exactly as argparse would, such as a help request or a
usage error, imports argparse and builds the full argparse tree
(:func:`_parser`), which prints the help or the error.

Exit status: 0 on success; 1 when a residual or check exceeds its tolerance,
a numerical check fails or stdout cannot be written (``error:``), or on a
closed stdout (silently); 2 for invalid usage or an unwritable ``--out``;
130 on an interrupt.  Lines stderr cannot take are lost, not rows or status.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import textwrap
import time
from dataclasses import dataclass, field, fields
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from . import entanglement, sphere, states, torus
from .linalg import identity_defect

if TYPE_CHECKING:
    import argparse

DEFAULT_TOL_ENTROPY = {"sphere": entanglement.MAX_ENTROPY_TOL, "torus": 1e-6}
DEFAULT_TOL_GRAM = {"sphere": 1e-12, "torus": 1e-7}
DEFAULT_TOL_IDENTITY = 1e-9
# Each model class holds its smallest k (K_MIN) and checks its own k and mu.
MODELS = {"sphere": sphere.SphereModel, "torus": torus.TorusModel}
# Submanifold -> (its builder's name in states, the models it is defined on).
# Names, not functions: the benchmark's tracer rebinds the builders in states.
SUBMANIFOLDS = {"antidiagonal": ("antidiagonal_state", ("sphere", "torus")),
                "circle": ("circle_state_quadrature", ("sphere",))}


@dataclass(frozen=True)
class RunConfig:
    k_min: int
    k_max: int
    model: str = "sphere"
    mu: float = 0.0
    submanifold: str = "antidiagonal"
    tol_entropy: float | None = None
    tol_gram: float | None = None
    tol_identity: float = DEFAULT_TOL_IDENTITY
    reproducible: bool = False

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.submanifold not in SUBMANIFOLDS:
            raise ValueError(f"unknown submanifold {self.submanifold!r}")
        if self.model not in (on := SUBMANIFOLDS[self.submanifold][1]):
            raise ValueError(f"the {self.submanifold} submanifold is only "
                             f"defined on the {' and '.join(on)} model")
        if self.mu != 0.0 and self.model != "torus":
            raise ValueError(f"mu is the torus character parameter; the "
                             f"{self.model} model takes none, got mu = {self.mu}")
        _model(self, self.k_min)  # the model's own k and mu checks
        if self.k_max < self.k_min:
            raise ValueError(f"empty k range {self.k_min}..{self.k_max}")
        for name in ("tol_entropy", "tol_gram", "tol_identity"):
            tol = getattr(self, name)
            if tol is not None and not 0.0 <= tol < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {tol}")
            if tol == 0.0:  # -0.0 passes the check but would print as -0
                object.__setattr__(self, name, 0.0)

    @property
    def max_entropy_residual(self) -> float:
        return (DEFAULT_TOL_ENTROPY[self.model] if self.tol_entropy is None
                else self.tol_entropy)

    @property
    def max_gram_residual(self) -> float:
        return (DEFAULT_TOL_GRAM[self.model] if self.tol_gram is None
                else self.tol_gram)


@dataclass(frozen=True)
class ReportRow:
    k: int
    d_k: int
    entropy: float
    ln_d_k: float
    entropy_residual: float
    separable_distance: float
    corollary_rhs: float
    gram_residual: float
    raw_norm: float
    wall_time_ms: float
    closed_form_distance: float = field(default=math.nan, compare=False)


# Every field but the last, which verify reads and report does not print.
CSV_HEADER = ",".join(f.name for f in fields(ReportRow)[:-1])


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    k: int
    passed: bool
    detail: str


def _model(config: RunConfig, k: int) -> sphere.SphereModel | torus.TorusModel:
    """``config``'s model at level k; the model checks k and mu itself."""
    if config.model == "torus":
        return torus.TorusModel(k, config.mu)
    return sphere.SphereModel(k)


def _build_state(config: RunConfig, k: int) -> states.LagrangianState:
    return getattr(states, SUBMANIFOLDS[config.submanifold][0])(_model(config, k))


def run(config: RunConfig) -> Iterator[ReportRow]:
    """Yields one ReportRow per k as it completes.  ``gram_residual`` and
    ``entropy_residual`` are defects from the closed form and entropy the
    state's builder records; ``reproducible`` zeroes the timing."""
    for k in range(config.k_min, config.k_max + 1):
        t0 = time.perf_counter()
        state = _build_state(config, k)
        raw_norm, prov, v = state.raw_norm, state.provenance, state.normalized()
        del state  # a row holds one d x d array through its analysis
        report = entanglement.analyze(v)
        del v  # and none through the next row's build
        yield ReportRow(
            k=k,
            d_k=report.d,
            entropy=report.entropy,
            ln_d_k=report.max_entropy,
            entropy_residual=abs(report.entropy - prov["closed_form_entropy"]),
            separable_distance=report.separable_distance,
            corollary_rhs=report.corollary_distance,
            gram_residual=prov["closed_form_defect"],
            raw_norm=raw_norm,
            wall_time_ms=(0.0 if config.reproducible
                          else (time.perf_counter() - t0) * 1e3),
            closed_form_distance=prov["closed_form_distance"],
        )


def tolerance_breaches(config: RunConfig, row: ReportRow) -> list[str]:
    """The row's residuals over their tolerances, one message per breach."""
    gates = (("entropy_residual", row.entropy_residual, config.max_entropy_residual),
             ("gram_residual", row.gram_residual, config.max_gram_residual))
    return [f"k={row.k}: {name} {value:.3e} exceeds {tol:g}"
            for name, value, tol in gates if value > tol]


def _binomial_square_sum_check(k: int) -> IdentityCheck:
    # The same exact integers the sphere amplitudes are built from.
    passed = sum(c * c for c in sphere.binomials(k)) == math.comb(2 * k, k)
    return IdentityCheck(
        name="binomial_square_sum", k=k, passed=passed,
        detail=f"sum C(k,j)^2 {'=' if passed else '!='} C(2k,k) (exact integers)")


def verify_identities(config: RunConfig, row: ReportRow) -> list[IdentityCheck]:
    """Cross-identities on one :func:`run` row of ``config``, a fixed list
    per row.  The row's residuals, the circle state's closed-form defect
    among them, are gated apart, by :func:`tolerance_breaches` alone.

    (a) On antidiagonal rows, the separable distance must equal
        sqrt(1 - e^-entropy) within ``tol_identity``.
    (b) On the sphere, the binomial identity behind the circle state norm,
        sum_j C(k,j)^2 = C(2k,k), in exact integers.
    (c) On the other rows, the separable distance must equal the
        ``closed_form_distance`` the state's builder records: on circle rows
        sqrt(1 - max_j p_j), max_j p_j = C(k, k//2)^2 / C(2k, k).
    """
    antidiagonal = config.submanifold == "antidiagonal"
    name, reference, formula = (
        ("distance_vs_entropy", row.corollary_rhs, "sqrt(1-e^-nu)") if antidiagonal
        else ("circle_distance_vs_closed_form", row.closed_form_distance,
              "sqrt(1 - C(k,k//2)^2/C(2k,k))"))
    gap = abs(row.separable_distance - reference)
    distance = IdentityCheck(name=name, k=row.k, passed=gap <= config.tol_identity,
                             detail=f"|D - {formula}| = {gap:.3e}")
    binomial = [_binomial_square_sum_check(row.k)] if config.model == "sphere" else []
    return [distance, *binomial] if antidiagonal else [*binomial, distance]


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def render_row(fmt: str, row: ReportRow, first: bool) -> str:
    """``report``'s text for one row.  The first row carries the CSV header
    or opens the JSON list, which a ``]`` line closes; the list then reads
    byte for byte as ``json.dumps`` of the rows with ``indent=2``."""
    columns = dict(zip(CSV_HEADER.split(","), vars(row).values()))
    if fmt == "json":
        return (("[\n" if first else ",\n")
                + textwrap.indent(json.dumps(columns, indent=2), "  "))
    k, d_k, *floats = columns.values()
    line = ",".join([str(k), str(d_k)] + [_fmt_float(x) for x in floats])
    return f"{CSV_HEADER}\n{line}\n" if first else f"{line}\n"


def _complex_table(a: np.ndarray) -> list[str]:
    lines = ["j,l,re,im"]
    for (j, l), x in np.ndenumerate(a):
        lines.append(f"{j},{l},{_fmt_float(x.real)},{_fmt_float(x.imag)}")
    return lines


# A dump: its metadata, the name and matrix that JSON appends last as
# <name>_real and <name>_imag, and the lines CSV writes after the matrix.
Dump = tuple[dict[str, Any], str, np.ndarray, list[str]]


def _state_dump(config: RunConfig, k: int) -> Dump:
    state = _build_state(config, k)
    v = state.normalized()
    report = entanglement.analyze(v)
    meta = {
        "model": config.model,
        "k": k,
        "mu": config.mu,
        "submanifold": config.submanifold,
        "d": report.d,
        "raw_norm": state.raw_norm,
        "entropy": report.entropy,
        "max_entropy": report.max_entropy,
        "separable_distance": report.separable_distance,
        "corollary_distance": report.corollary_distance,
        "maximally_entangled": report.is_maximally_entangled(
            config.max_entropy_residual),
        "schmidt_spectrum": [float(x) for x in report.schmidt_spectrum],
        "provenance": state.provenance,
    }
    alphas = [f"{j},{_fmt_float(math.sqrt(p))}"
              for j, p in enumerate(meta["schmidt_spectrum"])]
    return meta, "coeffs", v, ["", "j,alpha", *alphas]


def _gram_dump(config: RunConfig, k: int) -> Dump:
    gram, normalized, _ = _model(config, k).antidiagonal_gram()
    meta = {"model": config.model, "k": k, "mu": config.mu,
            "normalized_residual": identity_defect(normalized)}
    return meta, "gram", gram, []


# Flag -> add_argument keywords.  Each dest is a RunConfig field, except
# --k, which sets both ends of the k range, and main's --format and --out.
FLAGS: dict[str, dict[str, Any]] = {
    "--k": {"type": int, "required": True},
    "--k-min": {"type": int},
    "--k-max": {"type": int},
    "--model": {"choices": tuple(MODELS)},
    "--mu": {"type": float, "help": "torus character parameter"},
    "--submanifold": {"choices": tuple(SUBMANIFOLDS)},
    "--format": {"dest": "fmt", "choices": ("csv", "json")},
    "--out": {"help": "output path (default stdout)"},
    "--tol-entropy": {"type": float},
    "--tol-gram": {"type": float},
    "--tol-identity": {"type": float},
    "--reproducible": {"action": "store_true"},
}

# Subcommand -> (help, the flags it reads).
COMMAND_FLAGS = {
    "report": ("entropy sweep over a k range",
               "--k-min --k-max --model --mu --submanifold --format --out "
               "--tol-entropy --tol-gram --reproducible"),
    "verify": ("cross-identity checks",
               "--k-min --k-max --model --mu --submanifold --out --tol-gram "
               "--tol-identity"),
    "state": ("dump one state", "--k --model --mu --submanifold --format --out"),
    "gram": ("dump one model Gram matrix", "--k --model --mu --format --out"),
}


def _read_flags(command: str, tokens: list[str]) -> SimpleNamespace | None:
    """``command`` and its flags in ``tokens`` as the full argparse tree
    would read them, or None to leave the call to that tree.  Reads
    ``--flag value``, ``--flag=value`` and a bare ``--reproducible`` of the
    command's own flags only, with each flag's type, choices, dest and
    required keys; the last occurrence wins.  Anything else is None: -h,
    --help, --, a positional, an abbreviation or another command's flag, a
    missing value or one that starts with "-", a value its type or choices
    reject, ``--reproducible=x`` and a missing required flag.  Raises
    nothing."""
    own = COMMAND_FLAGS[command][1].split()
    given: dict[str, Any] = {}  # flag -> value
    rest = iter(tokens)
    for token in rest:
        flag, eq, value = token.partition("=")
        if flag not in own:
            return None
        spec = FLAGS[flag]
        if spec.get("action") == "store_true":
            if eq:
                return None
            given[flag] = True
            continue
        if not eq:
            value = next(rest, None)
        if value is None or value.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[flag] = value
    if any(FLAGS[flag].get("required") and flag not in given for flag in own):
        return None
    return SimpleNamespace(command=command, **{
        FLAGS[flag].get("dest", flag[2:].replace("-", "_")): value
        for flag, value in given.items()})


def _config_from_args(args: argparse.Namespace | SimpleNamespace) -> RunConfig:
    """RunConfig from the flags given; unset ones keep RunConfig's defaults.
    The k range starts at the model's smallest k and ends at
    max(k_min, 10)."""
    given = {key: value for key, value in vars(args).items()
             if key not in ("command", "fmt", "out")}
    if "k" in given:
        given["k_min"] = given["k_max"] = given.pop("k")
    else:
        given.setdefault("k_min", MODELS[given.get("model", RunConfig.model)].K_MIN)
        given.setdefault("k_max", max(given["k_min"], 10))
    return RunConfig(**given)


def _parser() -> argparse.ArgumentParser:
    """The full argparse tree: a top-level parser with one subparser per
    ``COMMAND_FLAGS`` entry, each holding only that command's flags."""
    import argparse  # only a call that needs its help or errors pays for it

    parser = argparse.ArgumentParser(
        prog="lagstate", allow_abbrev=False,
        description="Entanglement sweeps for states built from Lagrangian "
                    "submanifolds of the sphere and torus models.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in COMMAND_FLAGS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False,
                           argument_default=argparse.SUPPRESS)
        for flag in flags.split():
            p.add_argument(flag, **FLAGS[flag])
    return parser


def _stderr(line: str) -> None:
    """Prints a line to the current stderr, or drops it as argparse does."""
    if sys.stderr is not None:  # None when Python starts with fd 2 closed
        with contextlib.suppress(OSError):
            print(line, file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The full tree reads what the table reader leaves: -h, no command or an
    # unknown one, and any argv it cannot read exactly as argparse would.
    args = (_read_flags(argv[0], argv[1:]) if argv and argv[0] in COMMAND_FLAGS
            else None) or _parser().parse_args(argv)
    command = args.command
    fmt, out = getattr(args, "fmt", "csv"), getattr(args, "out", None)
    try:
        config = _config_from_args(args)
        # Opened before any state is built; rows already written stay on error.
        # Each write is flushed, so a failed one raises here, not at exit.
        with (contextlib.nullcontext(sys.stdout) if out is None
              else open(out, "w", encoding="utf-8")) as sink:
            if command in ("report", "verify"):
                failed = False
                for i, row in enumerate(run(config)):
                    if command == "report":
                        text = render_row(fmt, row, first=i == 0)
                    else:
                        checks = verify_identities(config, row)
                        failed |= not all(check.passed for check in checks)
                        text = "".join(
                            f"{'PASS' if check.passed else 'FAIL'} {check.name} "
                            f"k={check.k}: {check.detail}\n" for check in checks)
                    print(text, end="", file=sink, flush=True)
                    for message in tolerance_breaches(config, row):
                        failed = True
                        _stderr(f"TOLERANCE BREACH {message}")
                if fmt == "json":
                    print("\n]", file=sink, flush=True)
                return 1 if failed else 0

            dump = _state_dump if command == "state" else _gram_dump
            meta, name, matrix, trailer = dump(config, config.k_min)
            if fmt == "json":
                meta[f"{name}_real"] = matrix.real.tolist()
                meta[f"{name}_imag"] = matrix.imag.tolist()
                text = json.dumps(meta, indent=2)
            else:
                text = "\n".join(_complex_table(matrix) + trailer)
            print(text, file=sink, flush=True)
            return 0
    except (ValueError, RuntimeError) as exc:
        # A ValueError is bad input; a RuntimeError is a failed numerical check.
        _stderr(f"error: {exc}")
        return 2 if isinstance(exc, ValueError) else 1
    except MemoryError as exc:
        # A k too large for the memory at hand: a failed run, not bad usage.
        _stderr(f"error: out of memory{f': {exc}' if str(exc) else ''}")
        return 1
    except KeyboardInterrupt:
        _stderr("error: interrupted")
        return 130
    except OSError as exc:
        if out is not None:
            # An unwritable path is a bad flag value, so it exits 2.
            _stderr(f"error: cannot write --out {out}: {exc.strerror}")
            return 2
        # stdout failed.  Point it at devnull so the interpreter's flush at
        # exit does not raise again (Python docs, "Note on SIGPIPE").
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            _stderr(f"error: cannot write output: {exc.strerror}")
        return 1
