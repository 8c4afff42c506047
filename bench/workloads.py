"""The three workloads: figures, sweep and oracle.

Each workload has the same life cycle, driven by ``run.py``:

* ``build(cc, seed)`` -- make the program inputs (timed as set-up);
* ``prepare_reference()`` -- the benchmark's own reference numbers (untimed);
* ``run_pass()`` -- one pass over the fixed list of operations (timed);
* ``check(results)`` -- the number of failed operations of that pass and a
  list of unexpected problems (untimed);
* ``final_check()`` -- checks that read the pass's files back (untimed).

Every call into clickcraft goes through a module attribute (``cc.subtract``,
``self.cli.main``) so that the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import reference as ref

PROB_TOL = 1e-10  # pipeline probabilities against the reference
TABLE_TOL = 1e-12  # kernel and click-statistics values against the reference
GRID_TOL = 1e-12  # grid cells, relative to sum |c| of the terms
ORACLE_PROB_TOL = 1e-7  # pipeline against oracle (acceptance suite)
ORACLE_MOMENT_TOL = 1e-6  # relative, for |moment| > 1e-12 (acceptance suite)
ORACLE_REF_TOL = 1e-9  # oracle against the reference


def _u(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


# ---------------------------------------------------------------------------
# figures: the shipped configs through the CLI
# ---------------------------------------------------------------------------


class Figures:
    """The five shipped configs through ``clickcraft.cli.main``, once as CSV
    and once as JSON with ``--manifest``: ten operations per pass.  The seed
    only shuffles their order."""

    name = "figures"

    def __init__(self, root: Path) -> None:
        self.root = root
        self.out = root / "bench" / "out" / "figures"

    def build(self, cc, seed: int) -> None:
        import clickcraft.cli

        self.cli = clickcraft.cli
        self.configs = {
            path.stem: json.loads(path.read_text(encoding="utf-8"))
            for path in sorted((self.root / "configs").glob("*.json"))
        }
        ops = []
        for stem, config in self.configs.items():
            for fmt in ("csv", "json"):
                outdir = self.out / f"{stem}_{fmt}"
                argv = [config["protocol"], "--config", str(self.root / "configs" / f"{stem}.json"),
                        "--out", str(outdir), "--format", fmt]
                ops.append((stem, fmt, outdir, argv + (["--manifest"] if fmt == "json" else [])))
        order = np.random.default_rng(seed).permutation(len(ops))
        self.ops = [ops[i] for i in order]
        self.n_ops = len(self.ops)
        self.hashes = None

    def prepare_reference(self) -> None:
        pass

    def run_pass(self) -> list[int]:
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for *_, argv in self.ops:
                codes.append(self.cli.main(argv))
        return codes

    def _digest(self, outdir: Path) -> str:
        h = hashlib.sha256()
        for path in sorted(outdir.iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
        return h.hexdigest()

    def check(self, codes: list[int]) -> tuple[int, list[str]]:
        """Exit codes, and every output byte-identical to the first pass."""
        digests = [self._digest(outdir) for _, _, outdir, _ in self.ops]
        if self.hashes is None:
            self.hashes = digests
        problems = []
        for (stem, fmt, _, _), code, digest, first in zip(self.ops, codes, digests, self.hashes):
            if code != 0:
                problems.append(f"{stem} {fmt}: exit code {code}")
            elif digest != first:
                problems.append(f"{stem} {fmt}: output differs from the first pass")
        return len(problems), problems

    # -- reading the outputs back --------------------------------------------

    @staticmethod
    def _columns(path: Path) -> dict[str, np.ndarray]:
        if path.suffix == ".json":
            return {k: np.asarray(v, dtype=float) for k, v in json.loads(path.read_text()).items()}
        lines = path.read_text().splitlines()
        names = lines[0].split(",")
        data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        return {n: data[:, i] for i, n in enumerate(names)}

    @staticmethod
    def _grid_values(path: Path, grid: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cell values and the centres the file states, each shaped (n_im, n_re)."""
        n_re, n_im = grid["n_re"], grid["n_im"]
        dre = (grid["re_max"] - grid["re_min"]) / n_re
        dim = (grid["im_max"] - grid["im_min"]) / n_im
        re = grid["re_min"] + dre * (np.arange(n_re) + 0.5)
        im = grid["im_min"] + dim * (np.arange(n_im) + 0.5)
        re2, im2 = np.meshgrid(re, im)
        if path.suffix == ".json":
            payload = json.loads(path.read_text())
            values = np.asarray(payload["values_row_major"]).reshape(n_im, n_re)
            if payload["grid"] != grid:
                raise ValueError(f"{path.name}: grid block differs from the config")
            return values, re2, im2
        cols = Figures._columns(path)
        if list(cols) != ["re", "im", "value"]:
            raise ValueError(f"{path.name}: unexpected columns {list(cols)}")
        if not (np.array_equal(cols["re"], re2.ravel()) and np.array_equal(cols["im"], im2.ravel())):
            raise ValueError(f"{path.name}: cell centres differ from the config grid")
        return cols["value"].reshape(n_im, n_re), re2, im2

    def _check_terms(self, outdir: Path, tag: str, fmt: str, grid: dict | None) -> tuple[float, list[str]]:
        """Grid against its terms, probability against the terms' integral."""
        payload = json.loads((outdir / f"terms_{tag}.json").read_text())
        gaussians = [(g["c"], complex(*g["z"]), g["a"]) for g in payload["gaussians"]]
        deltas = [d["c"] for d in payload["deltas"]]
        total, scale = ref.mixture_integral(gaussians, deltas)
        problems = []
        if abs(payload["probability"] - total) > 1e-12 * scale:
            problems.append(f"{outdir.name} {tag}: probability {payload['probability']} != integral {total}")
        if grid is not None:
            values, re2, im2 = self._grid_values(outdir / f"pfunction_{tag}.{fmt}", grid)
            expect, csum = ref.gaussian_sum(gaussians, re2, im2)
            worst = float(np.max(np.abs(values - expect)))
            if worst > GRID_TOL * csum:
                problems.append(f"{outdir.name} {tag}: grid off by {worst:.3g} (sum|c| = {csum:.3g})")
        return payload["probability"], problems

    def final_check(self) -> list[str]:
        problems: list[str] = []
        tables = {}
        for stem, fmt, outdir, argv in sorted(self.ops, key=lambda op: op[0] == "fig6"):
            config = self.configs[stem]
            try:
                problems += getattr(self, f"_check_{config['protocol']}")(config, outdir, fmt, tables)
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"{stem} {fmt}: unreadable output ({exc!r})")
            if fmt == "json":
                manifest = json.loads((outdir / "manifest.json").read_text())
                files = sorted(p.name for p in outdir.iterdir() if p.name != "manifest.json")
                if manifest["outputs"] != files:
                    problems.append(f"{stem}: manifest lists {manifest['outputs']}, directory holds {files}")
        return problems

    def _check_herald(self, config, outdir, fmt, tables) -> list[str]:
        omega = config["input"]["omega"]
        n, eta = config["detector"]["N"], config["detector"]["eta"]
        summary = json.loads((outdir / "summary.json").read_text())
        problems = []
        for k, prob in zip(config["clicks"], summary["probabilities"]):
            cols = self._columns(outdir / f"herald_k{k}.{fmt}")
            w = cols["weight"]
            expect = ref.herald_weights(omega, n, eta, k, w.size)
            if not np.all(np.abs(w - expect) <= 1e-11 * expect + 1e-30):
                problems.append(f"herald k={k}: weights differ from (1-w) w^n D[k, n]")
            if abs(prob - math.fsum(w)) > 1e-12 * prob:
                problems.append(f"herald k={k}: probability is not the sum of the weights")
            if not np.allclose(cols["normalized"], w / prob, rtol=1e-12, atol=0):
                problems.append(f"herald k={k}: normalized weights")
        return problems

    def _check_conditioning(self, config, outdir, fmt, reference_probs) -> list[str]:
        summary = json.loads((outdir / "summary.json").read_text())
        problems = []
        for k, prob in zip(config["clicks"], summary["probabilities"]):
            terms_prob, found = self._check_terms(outdir, f"k{k}", fmt, config.get("grid"))
            problems += found
            if terms_prob != prob:
                problems.append(f"k={k}: summary and terms probabilities differ")
            if abs(prob - reference_probs[k]) > PROB_TOL:
                problems.append(f"k={k}: probability {prob} vs reference {reference_probs[k]}")
        return problems

    def _check_subtract(self, config, outdir, fmt, tables) -> list[str]:
        inp, det = config["input"], config["detector"]
        probs = ref.subtraction_probabilities(det["N"], det["eta"], config["optics"]["t"], 0j, inp["nbar"])
        return self._check_conditioning(config, outdir, fmt, probs)

    def _check_add(self, config, outdir, fmt, tables) -> list[str]:
        inp, det = config["input"], config["detector"]
        probs = ref.addition_probabilities(det["N"], det["eta"], config["optics"]["mu"], 0j, inp["nbar"])
        return self._check_conditioning(config, outdir, fmt, probs)

    def _check_amplify(self, config, outdir, fmt, tables) -> list[str]:
        beta = complex(*config["input"]["alpha"])
        d1, d2 = config["addition"]["detector"], config["subtraction"]["detector"]
        if fmt == "csv":
            cols = self._columns(outdir / "probability_table.csv")
            table = cols["probability"].reshape(d1["N"] + 1, d2["N"] + 1)
            percent = [line.rsplit(",", 1)[1] for line in (outdir / "probability_table.csv").read_text().splitlines()[1:]]
        else:
            payload = json.loads((outdir / "probability_table.json").read_text())
            table = np.asarray(payload["probabilities"])
            percent = [p for row in payload["percent"] for p in row]
        problems = []
        if percent != [f"{100.0 * v:.2f}" for v in table.ravel()]:
            problems.append(f"{outdir.name}: percent column is not the rounded probability")
        if "grid" not in config:  # the table1 config: the table itself
            rows, cols = ref.amplifier_marginals(
                d1["N"], d1["eta"], config["addition"]["optics"]["mu"],
                d2["N"], d2["eta"], config["subtraction"]["optics"]["t"], beta,
            )
            if abs(table.sum() - 1.0) > PROB_TOL or table.min() < 0:
                problems.append(f"{outdir.name}: table sums to {table.sum()} with minimum {table.min()}")
            if np.max(np.abs(table.sum(axis=1) - rows)) > PROB_TOL:
                problems.append(f"{outdir.name}: rows differ from the idler reference")
            if np.max(np.abs(table.sum(axis=0) - cols)) > PROB_TOL:
                problems.append(f"{outdir.name}: columns differ from the tapped-signal reference")
            tables[fmt] = table
            return problems
        # fig6 has the same optics as table1, so its probabilities are table entries
        for k1 in config["clicks"]["k1"]:
            for k2 in config["clicks"]["k2"]:
                prob, found = self._check_terms(outdir, f"k{k1}_{k2}", fmt, config["grid"])
                problems += found
                if abs(prob - tables[fmt][k1, k2]) > 1e-15:
                    problems.append(f"fig6 ({k1},{k2}): {prob} vs table1 {tables[fmt][k1, k2]}")
        return problems


# ---------------------------------------------------------------------------
# sweep: a parameter scan through the library API
# ---------------------------------------------------------------------------

# Part (a) draws every k for N = 4 and 8 but only k <= 4 for N = 16: above
# that, the alternating click-factor expansion loses more than the 1e-10
# tolerance on a large share of seeds (see README), and a seeded operation
# must not fail on some seeds only.  That region is measured in part (d) on
# fixed inputs.
CONDITIONING_N = (4, 8, 16)
N16_KMAX = 4
KINDS = ("thermal", "displaced_thermal", "coherent")
POINTS = 12  # parameter points per (N, input kind)
TABLE_N = 4
TABLE_BETAS = 8
# two ladders of nine detectors: 18 distinct tables per pass overflow the
# 16-entry cache, and k = 2, 3 reuse the table k = 1 just built
LADDER_N = (2, 3, 4, 6, 8, 16, 24, 32, 64)
LADDER_K = (1, 2, 3)
LADDER_ETAS = 2
LADDER_CUTOFF = 128
DETECTORS = 20  # herald_tmsv_distribution and click_statistics
# fixed sizes, so that every seed makes the same kernel tables
HERALD_CUTOFF = 64  # omega <= 0.5 leaves at most 0.5^64 = 5e-20 beyond it
PHOTONS = 100  # |alpha|^2 <= 4, nbar <= 1 leave below 1e-20 beyond it
# part (d): fixed inputs in the region where the named fault shows
FAULT_SLICE = (
    # (protocol, N, eta, t or mu, alpha0, nbar, clicks)
    ("subtract", 16, 0.5, 0.6, 0j, 0.5, range(6, 17)),
    ("add", 16, 0.8, 1.4, 0j, 0.5, range(6, 17)),
    ("subtract", 32, 0.8, 0.7, 0.8 + 0.3j, 0.5, (4, 8, 16, 24, 32)),
    ("add", 32, 0.8, 1.4, 0.8 + 0.3j, 0.5, (4, 8, 16, 24, 32)),
    ("subtract", 64, 0.8, 0.7, 0j, 0.5, (8, 16, 32, 48, 64)),
    ("add", 64, 0.8, 1.4, 0j, 0.5, (8, 16, 32, 48, 64)),
)
# amplifier tables at N1 = N2 = 8 with the table1 optics: their sums and
# marginals miss 1e-10 on a large share of seeded inputs, so they are fixed
FAULT_TABLE_N = 8
FAULT_TABLE_BETAS = (0.5, 0.7071067811865476, 1.0, 1.4142135623730951)


class Sweep:
    """Seeded parameter scan; one operation is one library call."""

    name = "sweep"

    def __init__(self, root: Path) -> None:
        self.root = root

    def build(self, cc, seed: int) -> None:
        self.cc = cc
        rng = np.random.default_rng(seed)
        # (protocol, spec, input mixture, reference key, in fault slice)
        self.conditioning = []
        for n in CONDITIONING_N:
            kmax = n if n < 16 else N16_KMAX
            for kind in KINDS * POINTS:
                eta, t, mu = _u(rng, 0.5, 0.9), _u(rng, 0.55, 0.8), _u(rng, 1.2, 1.8)
                alpha0 = _u(rng, 0.4, 1.2) * complex(math.cos(p := _u(rng, 0, 2 * math.pi)), math.sin(p))
                nbar = _u(rng, 0.3, 1.5)
                if kind == "thermal":
                    alpha0, p_in = 0j, cc.PhaseSpaceMixture.thermal(nbar)
                elif kind == "coherent":
                    nbar, p_in = 0.0, cc.PhaseSpaceMixture.coherent(alpha0)
                else:
                    p_in = cc.PhaseSpaceMixture.displaced_thermal(alpha0, nbar)
                self._add_outcomes(cc, "subtract", n, eta, t, alpha0, nbar, p_in, range(kmax + 1), False)
                self._add_outcomes(cc, "add", n, eta, mu, alpha0, nbar, p_in, range(kmax + 1), False)
        for proto, n, eta, optic, alpha0, nbar, clicks in FAULT_SLICE:
            p_in = cc.PhaseSpaceMixture.displaced_thermal(alpha0, nbar)
            self._add_outcomes(cc, proto, n, eta, optic, alpha0, nbar, p_in, clicks, True)

        self.tables = []  # (spec, beta, reference key, in fault slice)
        for _ in range(TABLE_BETAS):
            eta1, eta2 = _u(rng, 0.4, 0.8), _u(rng, 0.4, 0.8)
            mu, t = _u(rng, 1.2, 1.8), _u(rng, 0.55, 0.8)
            beta = _u(rng, 0.3, 1.5) * complex(math.cos(p := _u(rng, 0, 2 * math.pi)), math.sin(p))
            self._add_table(cc, TABLE_N, eta1, mu, eta2, t, beta, False)
        for beta in FAULT_TABLE_BETAS:
            self._add_table(cc, FAULT_TABLE_N, 0.5, 1.5, 0.5, 2.0 / 3.0, beta, True)

        self.ladders = []  # (eta, k, [detectors])
        for _ in range(LADDER_ETAS):
            eta = _u(rng, 0.3, 0.9)
            dets = [cc.DetectorConfig(n, eta) for n in LADDER_N]
            for k in LADDER_K:
                self.ladders.append((eta, k, [det for det in dets if det.N >= k]))

        self.heralds = []  # (omega, detector, k)
        self.statistics = []  # (photon distribution, detector)
        for n in rng.choice(np.arange(2, 65), size=DETECTORS, replace=False):
            det = cc.DetectorConfig(int(n), _u(rng, 0.5, 0.99))
            k = int(rng.integers(0, min(int(n), 8) + 1))
            self.heralds.append((_u(rng, 0.1, 0.5), det, k))
            dist = ref.glauber_lachs(_u(rng, 0.0, 4.0), _u(rng, 0.1, 1.0))[:PHOTONS]
            p = np.zeros(PHOTONS)
            p[: dist.size] = dist
            self.statistics.append((p, det))

        self.n_ops = (
            3 * len(self.conditioning)
            + len(self.tables)
            + sum(len(dets) for _, _, dets in self.ladders)
            + len(self.heralds)
            + len(self.statistics)
        )

    def _add_table(self, cc, n, eta1, mu, eta2, t, beta, fault) -> None:
        spec = cc.AmplifySpec(
            cc.AdditionSpec(cc.SqueezerConfig.from_mu(mu), cc.DetectorConfig(n, eta1), 0),
            cc.SubtractionSpec(cc.BeamSplitterConfig(t), cc.DetectorConfig(n, eta2), 0),
        )
        self.tables.append((spec, beta, (n, eta1, mu, n, eta2, t, beta), fault))

    def _add_outcomes(self, cc, proto, n, eta, optic, alpha0, nbar, p_in, clicks, fault) -> None:
        det = cc.DetectorConfig(n, eta)
        key = (proto, n, eta, optic, alpha0, nbar)
        for k in clicks:
            if proto == "subtract":
                spec = cc.SubtractionSpec(cc.BeamSplitterConfig(optic), det, k)
            else:
                spec = cc.AdditionSpec(cc.SqueezerConfig.from_mu(optic), det, k)
            self.conditioning.append((proto, spec, p_in, key, fault))

    def prepare_reference(self) -> None:
        self.ref_probs = {}
        for _, _, _, key, _ in self.conditioning:
            if key not in self.ref_probs:
                proto, n, eta, optic, alpha0, nbar = key
                fn = ref.subtraction_probabilities if proto == "subtract" else ref.addition_probabilities
                self.ref_probs[key] = fn(n, eta, optic, alpha0, nbar)
        self.ref_marginals = [ref.amplifier_marginals(*key) for _, _, key, _ in self.tables]
        self.ref_ladders = []
        for eta, k, dets in self.ladders:
            sups = []
            for det in dets:
                click = ref.kernel_table(det.N, eta, LADDER_CUTOFF - 1)[k]
                m = np.arange(LADDER_CUTOFF)
                logw = [
                    math.lgamma(x + 1) - math.lgamma(k + 1) - math.lgamma(x - k + 1)
                    + k * math.log(eta) + (x - k) * math.log1p(-eta) if x >= k else -math.inf
                    for x in m
                ]
                sups.append(float(np.max(np.abs(np.exp(logw) - click))))
            self.ref_ladders.append(sups)
        self.ref_stats = [ref.kernel_table(det.N, det.eta, p.size - 1) @ p for p, det in self.statistics]

    def run_pass(self) -> list:
        cc = self.cc
        out = []
        for proto, spec, p_in, _, _ in self.conditioning:
            try:
                o = (cc.subtract if proto == "subtract" else cc.add)(p_in, spec)
            except ValueError:
                out.append(None)
                continue
            out.append((o.probability, cc.moment(o.state, 1, 1), cc.moment(o.state, 2, 2)))
        for spec, beta, _, _ in self.tables:
            out.append(cc.probability_table(spec, beta))
        for eta, k, dets in self.ladders:
            out.append([cc.operator_norm_distance(det, k, LADDER_CUTOFF) for det in dets])
        for omega, det, k in self.heralds:
            out.append(cc.herald_tmsv_distribution(omega, det, k, HERALD_CUTOFF))
        for p, det in self.statistics:
            out.append(cc.click_statistics(p, det).probs)
        return out

    def check(self, out: list) -> tuple[int, list[str]]:
        failed = 0
        problems = []

        def fail(what: str, expected: bool, count: int = 1) -> None:
            nonlocal failed
            failed += count
            if not expected:
                problems.append(what)

        it = iter(out)
        for (proto, spec, _, key, fault), res in zip(self.conditioning, it):
            what = f"{proto} N={spec.det.N} k={spec.k} {key[2:]}"
            if res is None:
                fail(f"{what}: raised", fault, 3)
                continue
            prob, m1, m2 = res
            expect = self.ref_probs[key][spec.k]
            if not abs(prob - expect) <= PROB_TOL:
                fail(f"{what}: probability {prob} vs reference {expect}", fault)
            for order, m in ((1, m1), (2, m2)):
                val = m.real / prob if prob else math.nan
                if not (math.isfinite(val) and val >= 0):
                    fail(f"{what}: normalized moment of order {order} is {val}", fault)
        for (spec, beta, _, fault), (rows, cols), table in zip(self.tables, self.ref_marginals, it):
            what = f"probability_table N={spec.add.det.N} beta={beta:.4g}"
            if not (
                table.min() >= 0
                and abs(table.sum() - 1.0) <= PROB_TOL
                and np.max(np.abs(table.sum(axis=1) - rows)) <= PROB_TOL
                and np.max(np.abs(table.sum(axis=0) - cols)) <= PROB_TOL
            ):
                fail(f"{what}: min {table.min()}, sum {table.sum()}, marginals off", fault)
        for (eta, k, dets), sups, ladder in zip(self.ladders, self.ref_ladders, it):
            for i, (det, sup, res) in enumerate(zip(dets, sups, ladder)):
                if not (
                    abs(res.grid_sup - sup) <= TABLE_TOL
                    and res.value == max(res.grid_sup, res.tail_bound)
                    and (i == 0 or res.value < ladder[i - 1].value)
                ):
                    fail(f"operator_norm_distance N={det.N} eta={eta:.4g} k={k}: {res}", False)
        for (omega, det, k), res in zip(self.heralds, it):
            expect = ref.herald_weights(omega, det.N, det.eta, k, res.weights.size)
            if not (
                np.all(np.abs(res.weights - expect) <= 1e-11 * expect + 1e-30)
                and abs(res.probability - math.fsum(res.weights)) <= 1e-12 * res.probability
            ):
                fail(f"herald_tmsv_distribution N={det.N} k={k} omega={omega:.4g}", False)
        for (p, det), expect, probs in zip(self.statistics, self.ref_stats, it):
            if not np.max(np.abs(probs - expect)) <= TABLE_TOL:
                fail(f"click_statistics N={det.N} eta={det.eta:.4g}", False)
        return failed, problems

    def final_check(self) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# oracle: the truncated-Fock cross-check
# ---------------------------------------------------------------------------

ORACLE_DET = (16, 0.8)
MOMENT_PAIRS = [(p, q) for p in range(5) for q in range(5) if 0 < p + q <= 4]
MOMENT_KMAX = 3  # moments are compared for k <= 3, as in the acceptance suite
ORACLE_CASES = (
    # (name, protocol, alpha0, nbar, cutoff, tail_tol of the unitary)
    ("fig3", "subtract", 0j, 0.5, 40, None),
    ("fig5", "add", 0j, 0.5, 48, None),
    ("displaced-subtract", "subtract", 0.8 + 0.3j, 0.5, 56, None),
    ("displaced-add", "add", 0.8 + 0.3j, 0.5, 64, 1e-6),
)
ORACLE_T, ORACLE_MU = 0.7, 1.4


class Oracle:
    """Truncated two-mode states through the dense Fock unitaries, conditioned
    on every k of an N = 16 detector and compared with the phase-space
    pipeline.  The seed only shuffles the order of the cases."""

    name = "oracle"

    def __init__(self, root: Path) -> None:
        self.root = root

    def build(self, cc, seed: int) -> None:
        self.cc = cc
        n, eta = ORACLE_DET
        self.det = cc.DetectorConfig(n, eta)
        self.bs = cc.BeamSplitterConfig(ORACLE_T)
        self.sq = cc.SqueezerConfig.from_mu(ORACLE_MU)
        order = np.random.default_rng(seed).permutation(len(ORACLE_CASES))
        self.cases = []
        for i in order:
            name, proto, alpha0, nbar, cutoff, tail = ORACLE_CASES[i]
            p_in = cc.PhaseSpaceMixture.displaced_thermal(alpha0, nbar)
            if proto == "subtract":
                specs = [cc.SubtractionSpec(self.bs, self.det, k) for k in range(n + 1)]
            else:
                specs = [cc.AdditionSpec(self.sq, self.det, k) for k in range(n + 1)]
            self.cases.append((name, proto, alpha0, nbar, cutoff, tail, p_in, specs))
        per_case = 1 + (n + 1) + (MOMENT_KMAX + 1) * len(MOMENT_PAIRS)
        self.n_ops = per_case * len(self.cases)

    def prepare_reference(self) -> None:
        n, eta = ORACLE_DET
        self.ref_probs = [
            ref.subtraction_probabilities(n, eta, ORACLE_T, alpha0, nbar)
            if proto == "subtract"
            else ref.addition_probabilities(n, eta, ORACLE_MU, alpha0, nbar)
            for _, proto, alpha0, nbar, *_ in self.cases
        ]

    def run_pass(self) -> list:
        cc = self.cc
        out = []
        for name, proto, alpha0, nbar, d, tail, p_in, specs in self.cases:
            kind = "displaced_thermal" if alpha0 else "thermal"
            joint = cc.tensor_product(
                cc.make_state(kind, d, alpha=alpha0, nbar=nbar), cc.make_state("vacuum", d)
            )
            kwargs = {} if tail is None else {"tail_tol": tail}
            if proto == "subtract":
                joint = cc.apply_beam_splitter(joint, self.bs, **kwargs)
                pipeline = cc.subtract
            else:
                joint = cc.apply_two_mode_squeezer(joint, self.sq, **kwargs)
                pipeline = cc.add
            rows = []
            for k, spec in enumerate(specs):
                oracle = cc.condition_on_clicks(joint, self.det, k)
                pipe = pipeline(p_in, spec)
                moments = []
                if k <= MOMENT_KMAX:
                    moments = [
                        (cc.normally_ordered_moment(oracle.state, p, q), cc.moment(pipe.state, p, q))
                        for p, q in MOMENT_PAIRS
                    ]
                rows.append((oracle.probability, pipe.probability, moments))
            del joint
            out.append(rows)
        return out

    def check(self, out: list) -> tuple[int, list[str]]:
        problems = []
        failed = 0
        for (name, *_), expect, rows in zip(self.cases, self.ref_probs, out):
            total = math.fsum(r[0] for r in rows)
            if abs(total - 1.0) > ORACLE_PROB_TOL:
                failed += 1
                problems.append(f"{name}: oracle probabilities sum to {total}")
            for k, (p_oracle, p_pipe, moments) in enumerate(rows):
                if not (abs(p_oracle - p_pipe) <= ORACLE_PROB_TOL and abs(p_oracle - expect[k]) <= ORACLE_REF_TOL):
                    failed += 1
                    problems.append(f"{name} k={k}: oracle {p_oracle}, pipeline {p_pipe}, reference {expect[k]}")
                for (p, q), (o, m) in zip(MOMENT_PAIRS, moments):
                    if abs(o) > 1e-12 and not abs(m - o) <= ORACLE_MOMENT_TOL * abs(o):
                        failed += 1
                        problems.append(f"{name} k={k}: moment ({p},{q}) oracle {o} pipeline {m}")
        return failed, problems

    def final_check(self) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (Figures, Sweep, Oracle)}
