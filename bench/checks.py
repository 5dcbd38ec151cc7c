"""Output checks, one per workload command key.

Each check gets the command's exit code, stdout and stderr and returns
``None`` when the output is right, else a one-line reason.  Checks run
outside the timed region and import ``rieszlab`` from the checkout for
the independent recomputations (certificate re-verification, Parseval).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import workloads

PINNED = Path(__file__).resolve().parent / "pinned"

SEARCH_RATIO_TOL = 1e-12
DUAL_VALUE_TOL = 1e-6
DUAL_GAP_TOL = 1e-6
PARSEVAL_TOL = 1e-12
THRESHOLD_TOL = 1e-3
RPK_QUADRATURE_TOL = 1e-10
#: The growth fit is an empirical slope; it only has to land near (d-1)/2.
GROWTH_EXPONENT_TOL = 0.05

#: Search keys whose certificate path must hold for every seed.
MUST_CERTIFY = {"search_d2", "search_d1"}


class Checker:
    """Checks the outputs of one run; ``seed`` selects the pinned values."""

    def __init__(self, seed: int):
        self.seed = workloads.program_seed(seed)
        self.pins = json.loads((PINNED / "search.json").read_text())
        self.dual = json.loads((PINNED / "dual.json").read_text())
        self.poly_doc = workloads.random_poly_doc(seed)
        self.certificates = 0
        self.verified = 0

    def __call__(self, key: str, rc: int, out: bytes, err: bytes) -> str | None:
        if rc != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
            return f"exit code {rc}: {tail[0]}"
        fn = getattr(self, "check_" + key.split("_")[0])
        try:
            return fn(key, out, err)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unparsable output: {exc!r}"

    # -- search-grid and search_d1 ------------------------------------------

    def check_search(self, key: str, out: bytes, err: bytes) -> str | None:
        from rieszlab.search import RATIO_MARGIN, ViolationCertificate

        doc = json.loads(out)
        pin = self.pins[key].get(str(self.seed))
        if pin is not None:
            if doc["best_family"] != pin["best_family"]:
                return f"best_family {doc['best_family']!r} != pinned {pin['best_family']!r}"
            if not abs(doc["best_ratio"] - pin["best_ratio"]) <= SEARCH_RATIO_TOL:
                return f"best_ratio {doc['best_ratio']!r} != pinned {pin['best_ratio']!r}"
            if doc["found"] != pin["found"]:
                return f"found {doc['found']} != pinned {pin['found']}"
        if key in MUST_CERTIFY and not doc["found"]:
            return "no certificate on the certificate path"
        if doc["found"]:
            self.certificates += 1
            cert = ViolationCertificate.from_json_dict(doc["certificate"])
            if cert.ratio != doc["best_ratio"]:
                return "certificate ratio differs from best_ratio"
            ratio = cert.recompute_ratio(scale=2)
            if not ratio > 1.0 + RATIO_MARGIN:
                return f"certificate fails re-verification on the doubled grid ({ratio!r})"
            self.verified += 1
        return None

    # -- dual-solve ----------------------------------------------------------

    def check_dual(self, key: str, out: bytes, err: bytes) -> str | None:
        doc = json.loads(out)
        if not doc["duality_gap"] <= DUAL_GAP_TOL:
            return f"duality gap {doc['duality_gap']!r} above {DUAL_GAP_TOL}"
        if not abs(doc["value"] - self.dual[key]) <= DUAL_VALUE_TOL:
            return f"value {doc['value']!r} != pinned {self.dual[key]!r}"
        return None

    # -- cli-short -----------------------------------------------------------

    def check_figures(self, key: str, out: bytes, err: bytes) -> str | None:
        if out != (PINNED / f"{key}.csv").read_bytes():
            return "figure CSV differs from the pinned bytes"
        return None

    def check_scan(self, key: str, out: bytes, err: bytes) -> str | None:
        meta = json.loads(err)
        if len(meta["scans"]) != 5 or len(out.decode().strip().splitlines()) != 1 + 5 * 3:
            return "expected 5 scans of 3 rows"
        for scan in meta["scans"]:
            q_star = scan["q_star"]
            if isinstance(q_star, str):  # 'inf' is sanitized to a string
                continue
            limit = 4.0 - q_star
            if scan["extrapolated"] is None or not abs(scan["extrapolated"] - limit) <= THRESHOLD_TOL:
                return f"q={scan['q']}: extrapolated {scan['extrapolated']!r} not within {THRESHOLD_TOL} of {limit}"
        return None

    def check_rpk(self, key: str, out: bytes, err: bytes) -> str | None:
        doc = json.loads(out)
        if doc["first_violation"] is not None or min(doc["factor_margins"]) < 0:
            return f"coefficient comparison violated at n={doc['first_violation']}"
        for row in doc["quadrature_checks"]:
            if not row["diff"] <= RPK_QUADRATURE_TOL * abs(row["series"]):
                return f"r={row['r']}: series and quadrature differ by {row['diff']!r}"
        return None

    def check_dirichlet(self, key: str, out: bytes, err: bytes) -> str | None:
        rows = [line.split(",") for line in out.decode().strip().splitlines()[1:]]
        for d, p, radius, norm, count in rows:
            if int(count) != _lattice_count(float(radius), int(d)):
                return f"R={radius}: lattice count {count} is wrong"
            if not 0.0 < float(norm) <= int(count):
                return f"R={radius}, p={p}: norm {norm} outside (0, lattice count]"
        fits = json.loads(err)["fits"]
        if len(fits) != len({row[1] for row in rows}):
            return "missing growth fits"
        for fit in fits:
            if not abs(fit["exponent"] - fit["target"]) <= GROWTH_EXPONENT_TOL:
                return f"p={fit['p']}: growth exponent {fit['exponent']!r} far from {fit['target']}"
        return None

    def check_project(self, key: str, out: bytes, err: bytes) -> str | None:
        doc = json.loads(out)
        want = {
            tuple(t["alpha"]): (t["re"], t["im"]) for t in self.poly_doc["terms"] if min(t["alpha"]) >= 0
        }
        got = {tuple(t["alpha"]): (t["re"], t["im"]) for t in doc["terms"]}
        if doc["dim"] != workloads.POLY_DIM or got != want:
            return "projection differs from the nonnegative-frequency coefficients"
        return None

    def check_norm(self, key: str, out: bytes, err: bytes) -> str | None:
        from rieszlab.fourier import TrigPoly

        header, row = out.decode().strip().splitlines()
        p, value = (float(x) for x in row.split(","))
        poly = TrigPoly.from_json_dict(self.poly_doc)
        l2 = poly.l2_norm()
        l1_coeffs = sum(abs(c) for c in poly.coeffs.values())
        slack = 1.0 + PARSEVAL_TOL
        if p == 2.0:
            ok = abs(value - l2) <= PARSEVAL_TOL * l2
        elif math.isinf(p):
            ok = l2 / slack <= value <= l1_coeffs * slack
        else:  # p = 0, the geometric mean
            ok = 0.0 < value <= l2 * slack
        return None if ok else f"p={p}: norm {value!r} inconsistent with Parseval norm {l2!r}"

    def check_selftest(self, key: str, out: bytes, err: bytes) -> str | None:
        lines = out.decode().strip().splitlines()
        if not lines[-1].endswith(" 0 failed") or not all(x.startswith("ok ") for x in lines[:-1]):
            return "selftest reported a failure"
        return None


def _lattice_count(radius: float, dim: int) -> int:
    """Integer points in the closed ball, counted independently."""
    r = int(math.floor(radius))
    axis = np.arange(-r, r + 1)
    sq = sum(np.meshgrid(*([axis**2] * dim), indexing="ij"))
    return int(np.count_nonzero(sq <= radius * radius))
