"""The four benchmark workloads.

Every input (metrics, complex structures, tensors, documents, seeds) is
generated here from the workload seed with this file's own code, so inputs
stay fixed when library code changes.  A workload is a round of requests
repeated in a closed loop; ``call`` is the timed part of a request and
``check`` its known-answer check, which runs outside the timed interval.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np

import isocurv
import isocurv.cli

TOL = 1e-9  # the library's default relative tolerance, used by every call here
THEOREMS = ("ThmA_weakIso_constK", "Thm1_strongIso_confFlat", "Thm2_quadruples",
            "Thm5_weakIsoAntihol_constAntihol", "Thm6_strongIsoAntihol_Bochner",
            "Thm7_isoHol_Bochner_Kaehler", "Lemma2_equiv", "EinsteinFromIsotropicRicci")


# -- input generation ---------------------------------------------------------


def hermitian_point(m: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Metric diag(-1 x s, +1 x (m-s)) and the J pairing coordinates
    (2k, 2k+1) inside each sign block."""
    g = np.diag(np.r_[-np.ones(s), np.ones(m - s)])
    J = np.zeros((m, m))
    for i in list(range(0, s, 2)) + list(range(s, m, 2)):
        J[i + 1, i], J[i, i + 1] = 1.0, -1.0
    return g, J


def space_form(g, J, nu: float, mu: float) -> np.ndarray:
    """nu pi1 + (mu - nu)/3 pi2: constant antiholomorphic curvature nu and
    constant holomorphic curvature mu."""
    om = g @ J
    pi1 = np.einsum("yz,xu->xyzu", g, g) - np.einsum("xz,yu->xyzu", g, g)
    pi2 = (np.einsum("yz,xu->xyzu", om, om) - np.einsum("xz,yu->xyzu", om, om)
           - 2.0 * np.einsum("xy,zu->xyzu", om, om))
    return nu * pi1 + ((mu - nu) / 3.0) * pi2


def curvature_like(rng: np.random.Generator, m: int) -> np.ndarray:
    """Uniform noise projected onto the curvature-tensor symmetries."""
    T = rng.uniform(-1.0, 1.0, (m,) * 4)
    T = (T - T.transpose(1, 0, 2, 3)) / 2.0
    T = (T - T.transpose(0, 1, 3, 2)) / 2.0
    T = (T + T.transpose(2, 3, 0, 1)) / 2.0
    return T - (T + T.transpose(1, 2, 0, 3) + T.transpose(2, 0, 1, 3)) / 3.0


def write_document(path, g, J, tensors: dict) -> None:
    """A tensor document in the layout ``isocurv.docio`` documents."""
    obj = {"dim": len(g), "index": int(np.sum(np.diag(g) < 0)), "metric": g.tolist(),
           "J": J.tolist(), "meta": {"generator": "benchmarks"},
           "tensors": {k: T.reshape(-1).tolist() for k, T in tensors.items()}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def run_cli(argv: list[str]) -> int:
    """In-process ``isocurv`` command with its printing captured."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return isocurv.cli.main(argv)


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        out = json.load(fh)
    os.remove(path)  # a later request can never pass on a stale report
    return out


def close(x: float, want: float) -> bool:
    return abs(x - want) <= TOL * max(1.0, abs(want))


# -- workloads ------------------------------------------------------------------


class FuzzH44:
    """``fuzz(hermitian_model(8, 4), trials=10, samples=100, seed=S)``, S fixed
    per run: after warm-up the plane cache answers every sampling call."""

    name = "fuzz-h44"

    def __init__(self, seed: int, workdir: str):
        g, J = hermitian_point(8, 4)
        self.model = isocurv.ModelPoint(8, 4, metric=g, cplx=J)
        self.fuzz_seed = int(np.random.default_rng(seed).integers(2 ** 31))
        self.tensor_bytes = 10 * 8 ** 4 * 8

    def round(self):
        return [None]

    def call(self, _req):
        return isocurv.fuzz(self.model, trials=10, samples=100, seed=self.fuzz_seed)

    def check(self, _req, summary) -> str | None:
        checks = sum(c["consistent"] + c["inconsistent"] for c in summary["checks"].values())
        if summary["inconsistencies"] or checks != 80:
            return f"{len(summary['inconsistencies'])} inconsistencies in {checks} checks"
        return None


class DiagnoseFresh:
    """One ``isocurv diagnose``/``identities`` command per request on an m = 8
    document, with a new sampling seed each time so no two requests share
    a plane stream.  ``R`` = c pi1 (every side passes), ``N`` random
    curvature-like (every side fails)."""

    name = "diagnose-fresh"

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        g, J = hermitian_point(8, 4)
        c = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        self.doc = os.path.join(workdir, "h44.json")
        write_document(self.doc, g, J, {"R": space_form(g, J, c, c),
                                        "N": curvature_like(rng, 8)})
        self.report = os.path.join(workdir, "report.json")
        self.next_seed = int(rng.integers(2 ** 31))
        self.tensor_bytes = 8 ** 4 * 8

    def round(self):
        kinds = [("diagnose", t) for t in THEOREMS] + [("diagnose", "flatness"),
                                                        ("identities", None)]
        return [(cmd, thm, tensor) for cmd, thm in kinds for tensor in ("R", "N")]

    def call(self, req):
        cmd, thm, tensor = req
        self.next_seed += 1
        argv = [cmd, self.doc, "--tensor", tensor, "--seed", str(self.next_seed)]
        if cmd == "diagnose":
            argv += ["--theorem", thm, "--samples", "200", "--json", self.report]
        else:
            # no --json: `identities --json` raises TypeError on a numpy.bool_ verdict
            argv += ["--samples", "100"]
        return run_cli(argv)

    def check(self, req, code) -> str | None:
        cmd, thm, tensor = req
        flat = tensor == "R"
        if cmd == "identities":
            return None if code == (0 if flat else 1) else f"identities exit {code}"
        if code != 0:
            return f"{thm} on {tensor}: exit {code}"
        rep = read_json(self.report)
        if thm == "flatness":
            ok = (rep["boch_norm"] <= TOL) == flat
        else:
            # a consistent verdict means all sides agree, so the worst side
            # decides whether all pass or all fail
            ok = rep["verdict"] is True and (rep["max_residual"] <= TOL) == flat
        return None if ok else f"{thm} on {tensor}: unexpected report {rep}"


class DerivedSweep:
    """``flatness_norms`` on Hermitian models of signature (4, m-4), m = 8, 12,
    16, 20: exact criteria only, no sampling and no I/O."""

    name = "derived-sweep"
    dims = (8, 12, 16, 20)
    pool = 8  # even entries random curvature-like, odd entries space forms

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.cases = {}
        for m in self.dims:
            g, J = hermitian_point(m, 4)
            model = isocurv.ModelPoint(m, 4, metric=g, cplx=J)
            cases = []
            for k in range(self.pool):
                if k % 2:
                    nu, mu = rng.uniform(-2.0, 2.0, 2)
                    cases.append((space_form(g, J, nu, mu), (float(nu), float(mu))))
                else:
                    cases.append((curvature_like(rng, m), None))
            self.cases[m] = (model, cases)
        self.tensor_bytes = sum(m ** 4 for m in self.dims) * 8

    def round(self):
        return list(range(self.pool))

    def call(self, k):
        return [isocurv.flatness_norms(model, cases[k][0])
                for model, cases in self.cases.values()]

    def check(self, k, norms) -> str | None:
        for m, out in zip(self.dims, norms):
            want = self.cases[m][1][k][1]
            if want is None:
                ok = out.boch_norm > TOL
            else:
                ok = out.boch_norm <= TOL and close(out.nu_hat, want[0]) and close(out.mu_hat, want[1])
            if not ok:
                return f"m={m} case {k}: {out}"
        return None


class DocRoundtrip:
    """``isocurv gen space-form --n 10 --s 2`` (an m = 20 document) followed by
    ``isocurv diagnose --theorem flatness`` on that file."""

    name = "doc-roundtrip"
    pool = 4

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.params = [tuple(float(x) for x in rng.uniform(-2.0, 2.0, 2)) for _ in range(self.pool)]
        # what `gen` must have written, bit for bit, built in memory by the library
        model = isocurv.hermitian_model(20, 4)
        self.expected = [isocurv.build_space_form(model, nu, mu) for nu, mu in self.params]
        self.doc = os.path.join(workdir, "space-form.json")
        self.report = os.path.join(workdir, "flatness.json")
        self.verified = {}  # pool index -> sha256 of a document checked by reloading
        self.tensor_bytes = 20 ** 4 * 8

    def round(self):
        return list(range(self.pool))

    def call(self, k):
        nu, mu = self.params[k]
        gen = run_cli(["gen", "space-form", "--n", "10", "--s", "2", f"--mu={mu!r}",
                       f"--nu={nu!r}", "--out", self.doc])
        diag = run_cli(["diagnose", self.doc, "--tensor", "R", "--theorem", "flatness",
                        "--json", self.report])
        return gen, diag

    def check(self, k, codes) -> str | None:
        if codes != (0, 0):
            return f"exit codes {codes}"
        nu, mu = self.params[k]
        with open(self.doc, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        if self.verified.get(k) != digest:
            # byte-identical files reload identically, so each distinct file
            # is reloaded once
            doc = isocurv.load_document(self.doc)
            if (doc.model.dim, doc.model.index) != (20, 4):
                return f"document model ({doc.model.dim}, {doc.model.index})"
            if not np.array_equal(doc.tensor("R"), self.expected[k]):
                return "reloaded tensor differs from the in-memory build"
            self.verified[k] = digest
        os.remove(self.doc)
        rep = read_json(self.report)
        if not (rep["boch_norm"] <= TOL and close(rep["nu_hat"], nu) and close(rep["mu_hat"], mu)):
            return f"flatness report {rep} for nu={nu!r} mu={mu!r}"
        return None


WORKLOADS = {w.name: w for w in (FuzzH44, DiagnoseFresh, DerivedSweep, DocRoundtrip)}
