"""Command line front end: entropy sweeps, identity checks, state dumps.

``report`` sweeps k over a model, emitting one row per k with the entropy,
its deviation from the maximal value ln d, the distance to the nearest
product vector, and the quadrature residuals.  ``verify`` re-derives the
cross-identities (distance vs entropy, the binomial sum identity, quadrature
vs closed form).  ``state`` and ``gram`` dump a single state or Gram matrix.

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
from dataclasses import asdict, astuple, dataclass
from typing import Any

import numpy as np

from . import entanglement, sphere, states, torus
from .linalg import max_abs

CSV_HEADER = ("k,d_k,entropy,ln_d_k,entropy_residual,separable_distance,"
              "corollary_rhs,gram_residual,raw_norm,wall_time_ms")

DEFAULT_TOL_ENTROPY = {"sphere": 1e-9, "torus": 1e-6}
DEFAULT_TOL_GRAM = {"sphere": 1e-12, "torus": 1e-7}
DEFAULT_K_MIN = {"sphere": 1, "torus": 3}


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
    tol_identity: float = 1e-9
    theta_tol: float = torus.THETA_TOL
    reproducible: bool = False

    def __post_init__(self) -> None:
        if self.model not in ("sphere", "torus"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.submanifold not in ("antidiagonal", "circle"):
            raise ValueError(f"unknown submanifold {self.submanifold!r}")
        if self.submanifold == "circle" and self.model != "sphere":
            raise ValueError("the circle submanifold is only defined on the "
                             "sphere model")
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


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    k: int
    passed: bool
    detail: str


def _build_state(config: RunConfig, k: int) -> states.LagrangianState:
    if config.model == "torus":
        return states.antidiagonal_state(torus.TorusModel(k, config.mu),
                                         theta_tol=config.theta_tol)
    model = sphere.SphereModel(k)
    if config.submanifold == "circle":
        return states.circle_state_quadrature(model)
    return states.antidiagonal_state(model)


def _row_gram_residual(k: int, state: states.LagrangianState) -> float:
    if "basis_gram_residual" in state.provenance:
        return float(state.provenance["basis_gram_residual"])
    return sphere.gram_residual(sphere.SphereModel(k))


def run(config: RunConfig) -> list[ReportRow]:
    """One ReportRow per k.  With ``reproducible`` set, timing is reported
    as zero so repeated runs serialize identically."""
    rows = []
    for k in range(config.k_min, config.k_max + 1):
        t0 = time.perf_counter()
        state = _build_state(config, k)
        gram_res = _row_gram_residual(k, state)
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
            gram_residual=gram_res,
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
    if k <= 30:
        lhs = sum(math.comb(k, j) ** 2 for j in range(k + 1))
        rhs = math.comb(2 * k, k)
        return IdentityCheck(
            name="binomial_square_sum", k=k, passed=lhs == rhs,
            detail=f"sum C(k,j)^2 = {lhs}, C(2k,k) = {rhs} (exact integers)")
    log_terms = np.array([2.0 * sphere.log_binomial(k, j) for j in range(k + 1)])
    peak = log_terms.max()
    log_lhs = peak + math.log(np.exp(log_terms - peak).sum())
    log_rhs = sphere.log_binomial(2 * k, k)
    rel = abs(log_lhs - log_rhs) / abs(log_rhs)
    return IdentityCheck(
        name="binomial_square_sum", k=k, passed=rel <= 1e-12,
        detail=f"log-space relative defect {rel:.3e}")


def verify_identities(config: RunConfig) -> list[IdentityCheck]:
    """Cross-identities over the configured k range.

    (a) On maximally entangled rows, the separable distance must equal
        sqrt(1 - e^-entropy).
    (b) On the sphere, the binomial identity behind the circle state norm,
        exact in integers for k <= 30 and in log space beyond.
    (c) On the sphere circle, the quadrature state must match the closed
        form entrywise.
    """
    checks = []
    for k in range(config.k_min, config.k_max + 1):
        state = _build_state(config, k)
        v = state.normalized()
        report = entanglement.analyze(v)
        if report.is_maximally_entangled():
            gap = abs(report.separable_distance - report.corollary_distance)
            checks.append(IdentityCheck(
                name="distance_vs_entropy", k=k,
                passed=gap <= config.tol_identity,
                detail=f"|D - sqrt(1-e^-nu)| = {gap:.3e}"))
        if config.model == "sphere":
            checks.append(_binomial_square_sum_check(k))
        if config.model == "sphere" and config.submanifold == "circle":
            closed = states.circle_state_closed_form(k)
            defect = float(np.max(np.abs(v - closed)))
            checks.append(IdentityCheck(
                name="circle_quadrature_vs_closed_form", k=k,
                passed=defect <= 1e-12,
                detail=f"max entrywise defect {defect:.3e}"))
    return checks


def _fmt_float(x: float) -> str:
    return f"{x:.17g}"


def render_csv(rows: list[ReportRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        k, d_k, *floats = astuple(row)
        lines.append(",".join([str(k), str(d_k)] + [_fmt_float(x) for x in floats]))
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> list[ReportRow]:
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unexpected CSV header")
    rows = []
    for line in lines[1:]:
        k, d_k, *floats = line.split(",")
        rows.append(ReportRow(int(k), int(d_k), *map(float, floats)))
    return rows


def render_json(rows: list[ReportRow]) -> str:
    return json.dumps([asdict(row) for row in rows], indent=2) + "\n"


def _complex_table(a: np.ndarray) -> list[str]:
    lines = ["j,l,re,im"]
    for j in range(a.shape[0]):
        for l in range(a.shape[1]):
            lines.append(f"{j},{l},{_fmt_float(a[j, l].real)},"
                         f"{_fmt_float(a[j, l].imag)}")
    return lines


def _state_payload(config: RunConfig, k: int) -> dict[str, Any]:
    state = _build_state(config, k)
    v = state.normalized()
    report = entanglement.analyze(v)
    return {
        "model": config.model,
        "k": k,
        "mu": config.mu,
        "submanifold": config.submanifold if config.model == "sphere"
        else "antidiagonal",
        "d": report.d,
        "raw_norm": state.raw_norm,
        "entropy": report.entropy,
        "max_entropy": report.max_entropy,
        "separable_distance": report.separable_distance,
        "corollary_distance": report.corollary_distance,
        "maximally_entangled": report.is_maximally_entangled(),
        "schmidt_spectrum": [float(x) for x in report.schmidt_spectrum],
        "provenance": state.provenance,
        "coeffs_real": v.real.tolist(),
        "coeffs_imag": v.imag.tolist(),
        "_coeffs": v,
    }


def _gram_payload(config: RunConfig, k: int) -> dict[str, Any]:
    if config.model == "torus":
        basis = torus.orthonormal_basis(torus.TorusModel(k, config.mu),
                                        theta_tol=config.theta_tol)
        gram = basis.quadrature.gram
        residual = basis.gram_residual()
    else:
        gram = sphere.gram_matrix(sphere.SphereModel(k))
        residual = max_abs(gram - np.eye(len(gram)))
    return {
        "model": config.model,
        "k": k,
        "mu": config.mu,
        "normalized_residual": residual,
        "gram_real": gram.real.tolist(),
        "gram_imag": gram.imag.tolist(),
        "_gram": gram,
    }


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


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=("sphere", "torus"),
                        default="sphere")
    parser.add_argument("--mu", type=float, default=0.0,
                        help="torus character parameter")
    parser.add_argument("--submanifold", choices=("antidiagonal", "circle"),
                        default="antidiagonal")
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"),
                        default="csv")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--tol-entropy", type=float, default=None)
    parser.add_argument("--tol-gram", type=float, default=None)
    parser.add_argument("--tol-identity", type=float, default=1e-9)
    parser.add_argument("--theta-tol", type=float, default=torus.THETA_TOL,
                        help="torus theta series tail and y-rule tolerance")
    parser.add_argument("--reproducible", action="store_true")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.command in ("state", "gram"):
        k_min = k_max = args.k
    else:
        k_min = args.k_min if args.k_min is not None else DEFAULT_K_MIN[args.model]
        k_max = args.k_max if args.k_max is not None else max(k_min, 10)
    return RunConfig(
        model=args.model, k_min=k_min, k_max=k_max, mu=args.mu,
        submanifold=args.submanifold, fmt=args.fmt, out=args.out,
        tol_entropy=args.tol_entropy, tol_gram=args.tol_gram,
        tol_identity=args.tol_identity, theta_tol=args.theta_tol,
        reproducible=args.reproducible)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused: parse_args returns
    a fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="lagstate",
        description="Entanglement sweeps for states built from Lagrangian "
                    "submanifolds of the sphere and torus models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="entropy sweep over a k range")
    p_report.add_argument("--k-min", type=int, default=None)
    p_report.add_argument("--k-max", type=int, default=None)
    _add_common_flags(p_report)

    p_verify = sub.add_parser("verify", help="cross-identity checks")
    p_verify.add_argument("--k-min", type=int, default=None)
    p_verify.add_argument("--k-max", type=int, default=None)
    _add_common_flags(p_verify)

    p_state = sub.add_parser("state", help="dump one state")
    p_state.add_argument("--k", type=int, required=True)
    _add_common_flags(p_state)

    p_gram = sub.add_parser("gram", help="dump one model Gram matrix")
    p_gram.add_argument("--k", type=int, required=True)
    _add_common_flags(p_gram)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "report":
            rows = run(config)
            text = render_csv(rows) if config.fmt == "csv" else render_json(rows)
            _emit(text, config.out)
            breaches = tolerance_breaches(config, rows)
            for message in breaches:
                print(f"TOLERANCE BREACH {message}", file=sys.stderr)
            return 1 if breaches else 0

        if args.command == "verify":
            checks = verify_identities(config)
            lines = []
            for check in checks:
                status = "PASS" if check.passed else "FAIL"
                lines.append(f"{status} {check.name} k={check.k}: {check.detail}")
            _emit("\n".join(lines) + "\n", config.out)
            return 0 if all(check.passed for check in checks) else 1

        if args.command == "state":
            payload = _state_payload(config, args.k)
            coeffs = payload.pop("_coeffs")
            if config.fmt == "json":
                _emit(json.dumps(payload, indent=2) + "\n", config.out)
            else:
                lines = _complex_table(coeffs)
                lines.append("")
                lines.append("j,alpha")
                for j, alpha in enumerate(payload["schmidt_spectrum"]):
                    lines.append(f"{j},{_fmt_float(math.sqrt(max(alpha, 0.0)))}")
                _emit("\n".join(lines) + "\n", config.out)
            return 0

        if args.command == "gram":
            payload = _gram_payload(config, args.k)
            gram = payload.pop("_gram")
            if config.fmt == "json":
                _emit(json.dumps(payload, indent=2) + "\n", config.out)
            else:
                _emit("\n".join(_complex_table(gram)) + "\n", config.out)
            return 0
    except (ValueError, RuntimeError) as exc:
        # A ValueError is bad input; a RuntimeError is a failed numerical check.
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1
    raise AssertionError("unreachable command")
