"""Command line front end: entropy sweeps, identity checks, state dumps.

``report`` sweeps k over a model, emitting one row per k with the entropy,
its deviation from the maximal value ln d, the distance to the nearest
product vector, and the state's closed-form residual.  ``verify`` runs a
fixed list of cross-identity checks on the same rows (see
:func:`verify_identities`).  Both gate the residuals in
:func:`tolerance_breaches`, the one judge of the closed-form defect and of
the entropy's gap to ln d.  ``state`` and ``gram`` dump a single state or
Gram matrix and gate nothing; ``state``'s ``maximally_entangled`` verdict
reads the model's entropy tolerance.  ``gram``'s ``normalized_residual`` is
an antidiagonal row's ``gram_residual``, from :func:`linalg.identity_defect`.
Each subcommand accepts only the flags it reads (``COMMAND_FLAGS``); any
other flag is a usage error.

Exit status: 0 on success, 1 when a residual or check exceeds its tolerance
or a numerical check fails (reported as ``error:``), 2 for invalid usage.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, fields
from typing import Any

import numpy as np

from . import entanglement, sphere, states, torus
from .linalg import identity_defect

DEFAULT_TOL_ENTROPY = {"sphere": entanglement.MAX_ENTROPY_TOL, "torus": 1e-6}
DEFAULT_TOL_GRAM = {"sphere": 1e-12, "torus": 1e-7}
DEFAULT_TOL_IDENTITY = 1e-9
DEFAULT_K_MIN = {"sphere": sphere.SphereModel.K_MIN, "torus": torus.TorusModel.K_MIN}


@dataclass(frozen=True)
class RunConfig:
    model: str = "sphere"
    k_min: int = 1
    k_max: int = 10
    mu: float = 0.0
    submanifold: str = "antidiagonal"
    fmt: str = "csv"
    out: str | None = None
    tol_entropy: float | None = None
    tol_gram: float | None = None
    tol_identity: float = DEFAULT_TOL_IDENTITY
    reproducible: bool = False

    def __post_init__(self) -> None:
        if self.model not in ("sphere", "torus"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.submanifold not in ("antidiagonal", "circle"):
            raise ValueError(f"unknown submanifold {self.submanifold!r}")
        if self.submanifold == "circle" and self.model != "sphere":
            raise ValueError("the circle submanifold is only defined on the "
                             "sphere model")
        if self.mu != 0.0 and self.model != "torus":
            raise ValueError(f"mu is the torus character parameter; the "
                             f"{self.model} model takes none, got mu = {self.mu}")
        if self.k_min < DEFAULT_K_MIN[self.model]:
            raise ValueError(
                f"{self.model} model needs k >= {DEFAULT_K_MIN[self.model]}, "
                f"got k_min = {self.k_min}")
        if self.k_max < self.k_min:
            raise ValueError(f"empty k range {self.k_min}..{self.k_max}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"unknown format {self.fmt!r}")
        for name in ("tol_entropy", "tol_gram", "tol_identity"):
            tol = getattr(self, name)
            if tol is not None and not 0.0 <= tol < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {tol}")

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


CSV_HEADER = ",".join(f.name for f in fields(ReportRow))


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    k: int
    passed: bool
    detail: str


def _build_state(config: RunConfig, k: int) -> states.LagrangianState:
    if config.model == "torus":
        return states.antidiagonal_state(torus.TorusModel(k, config.mu))
    model = sphere.SphereModel(k)
    if config.submanifold == "circle":
        return states.circle_state_quadrature(model)
    return states.antidiagonal_state(model)


def run(config: RunConfig) -> list[ReportRow]:
    """One ReportRow per k.  ``gram_residual`` is the state's defect from
    its closed form, recorded by the state builder.  With ``reproducible``
    set, timing is reported as zero so repeated runs serialize identically."""
    rows = []
    for k in range(config.k_min, config.k_max + 1):
        t0 = time.perf_counter()
        state = _build_state(config, k)
        report = entanglement.analyze(state.normalized())
        if config.submanifold == "circle":
            target = states.circle_entropy_closed_form(k)
        else:
            target = report.max_entropy
        rows.append(ReportRow(
            k=k,
            d_k=report.d,
            entropy=report.entropy,
            ln_d_k=report.max_entropy,
            entropy_residual=abs(report.entropy - target),
            separable_distance=report.separable_distance,
            corollary_rhs=report.corollary_distance,
            gram_residual=state.provenance["closed_form_defect"],
            raw_norm=state.raw_norm,
            # Read last, so the time covers the SVD behind separable_distance.
            wall_time_ms=(0.0 if config.reproducible
                          else (time.perf_counter() - t0) * 1e3),
        ))
    return rows


def tolerance_breaches(config: RunConfig, rows: list[ReportRow]) -> list[str]:
    """Residuals exceeding the configured tolerances, one message per breach."""
    messages = []
    for row in rows:
        if row.entropy_residual > config.max_entropy_residual:
            messages.append(
                f"k={row.k}: entropy_residual {row.entropy_residual:.3e} "
                f"exceeds {config.max_entropy_residual:g}")
        if row.gram_residual > config.max_gram_residual:
            messages.append(
                f"k={row.k}: gram_residual {row.gram_residual:.3e} "
                f"exceeds {config.max_gram_residual:g}")
    return messages


def _binomial_square_sum_check(k: int) -> IdentityCheck:
    # The same exact integers the sphere amplitudes are built from.
    passed = sum(c * c for c in sphere.binomials(k)) == math.comb(2 * k, k)
    return IdentityCheck(
        name="binomial_square_sum", k=k, passed=passed,
        detail=f"sum C(k,j)^2 {'=' if passed else '!='} C(2k,k) (exact integers)")


def _circle_distance_check(k: int, distance: float, tol: float) -> IdentityCheck:
    central = math.comb(2 * k, k)
    # Exact integers, one correctly rounded division.
    rest = (central - math.comb(k, k // 2) ** 2) / central
    gap = abs(distance - math.sqrt(rest))
    return IdentityCheck(
        name="circle_distance_vs_closed_form", k=k, passed=gap <= tol,
        detail=f"|D - sqrt(1 - C(k,k//2)^2/C(2k,k))| = {gap:.3e}")


def verify_identities(config: RunConfig,
                      rows: list[ReportRow]) -> list[IdentityCheck]:
    """Cross-identities on the :func:`run` rows of ``config``, a fixed list
    per row.  The rows' residuals, the circle state's closed-form defect
    among them, are gated apart, by :func:`tolerance_breaches` alone.

    (a) On antidiagonal rows, the separable distance must equal
        sqrt(1 - e^-entropy) within ``tol_identity``.
    (b) On the sphere, the binomial identity behind the circle state norm,
        sum_j C(k,j)^2 = C(2k,k), in exact integers.
    (c) On circle rows, the separable distance must equal
        sqrt(1 - max_j p_j), with the largest Schmidt weight
        max_j p_j = C(k, k//2)^2 / C(2k, k) from exact integers.
    """
    checks = []
    for row in rows:
        k = row.k
        if config.submanifold == "antidiagonal":
            gap = abs(row.separable_distance - row.corollary_rhs)
            checks.append(IdentityCheck(
                name="distance_vs_entropy", k=k,
                passed=gap <= config.tol_identity,
                detail=f"|D - sqrt(1-e^-nu)| = {gap:.3e}"))
        if config.model == "sphere":
            checks.append(_binomial_square_sum_check(k))
        if config.submanifold == "circle":
            checks.append(_circle_distance_check(
                k, row.separable_distance, config.tol_identity))
    return checks


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def render_csv(rows: list[ReportRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        k, d_k, *floats = vars(row).values()
        lines.append(",".join([str(k), str(d_k)] + [_fmt_float(x) for x in floats]))
    return "\n".join(lines) + "\n"


def render_json(rows: list[ReportRow]) -> str:
    return json.dumps([vars(row) for row in rows], indent=2) + "\n"


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
    if config.model == "torus":
        basis = torus.orthonormal_basis(torus.TorusModel(k, config.mu))
        gram, normalized = basis.quadrature.gram, basis.normalized_gram
    else:
        gram = normalized = sphere.gram_matrix(sphere.SphereModel(k))
    meta = {"model": config.model, "k": k, "mu": config.mu,
            "normalized_residual": identity_defect(normalized)}
    return meta, "gram", gram, []


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            # An unwritable path is a bad flag value, so it exits 2.
            raise ValueError(f"cannot write --out {out}: {exc.strerror}") from exc


# Flag -> add_argument keywords.  Each dest is a RunConfig field, except
# --k, which sets both ends of the k range.
FLAGS: dict[str, dict[str, Any]] = {
    "--k": {"type": int, "required": True},
    "--k-min": {"type": int},
    "--k-max": {"type": int},
    "--model": {"choices": ("sphere", "torus")},
    "--mu": {"type": float, "help": "torus character parameter"},
    "--submanifold": {"choices": ("antidiagonal", "circle")},
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


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """RunConfig from the flags given; unset ones keep RunConfig's defaults,
    except the k range, which starts at the model's smallest k."""
    given = vars(args).copy()
    del given["command"]
    if "k" in given:
        given["k_min"] = given["k_max"] = given.pop("k")
    else:
        given.setdefault("k_min", DEFAULT_K_MIN[given.get("model", RunConfig.model)])
        given.setdefault("k_max", max(given["k_min"], 10))
    return RunConfig(**given)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused: parse_args returns
    a fresh namespace on every call."""
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


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command in ("report", "verify"):
            rows = run(config)
            failed = False
            if args.command == "report":
                text = render_csv(rows) if config.fmt == "csv" else render_json(rows)
            else:
                checks = verify_identities(config, rows)
                failed = not all(check.passed for check in checks)
                text = "".join(
                    f"{'PASS' if check.passed else 'FAIL'} {check.name} "
                    f"k={check.k}: {check.detail}\n" for check in checks)
            _emit(text, config.out)
            breaches = tolerance_breaches(config, rows)
            for message in breaches:
                print(f"TOLERANCE BREACH {message}", file=sys.stderr)
            return 1 if breaches or failed else 0

        dump = _state_dump if args.command == "state" else _gram_dump
        meta, name, matrix, trailer = dump(config, config.k_min)
        if config.fmt == "json":
            meta[f"{name}_real"] = matrix.real.tolist()
            meta[f"{name}_imag"] = matrix.imag.tolist()
            _emit(json.dumps(meta, indent=2) + "\n", config.out)
        else:
            _emit("\n".join(_complex_table(matrix) + trailer) + "\n", config.out)
        return 0
    except (ValueError, RuntimeError) as exc:
        # A ValueError is bad input; a RuntimeError is a failed numerical check.
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1
    except MemoryError as exc:
        # A k too large for the memory at hand: a failed run, not bad usage.
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}",
              file=sys.stderr)
        return 1
