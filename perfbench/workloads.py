"""The four workloads: their requests, warm-up and correctness checks.

A request is one input through the workload's call sequence (or one CLI
subprocess).  Requests call the library through module attributes, so a
traced pass sees the wrappers installed by `spans.Tracer.patched`.  Each
request returns a small summary; `check` compares it with the oracle's
reference for that input and returns the problems found (none when the
request is correct).
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from mpmath import mp, mpf

import corpus
import oracle

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text(encoding="utf-8"))
CLI_TIMEOUT_S = 150
# A certified L1 enclosure must be this tight, relative to the value.
L1_REL_ERROR = 1e-12
# Slack for comparing interval endpoints computed at 50 digits.
INTERVAL_REL = 1e-30


class Request:
    def __init__(self, inp: corpus.Input, payload):
        self.inp = inp
        self.payload = payload


class Workload:
    """Base: builds the corpus, prepares requests, caches references."""

    in_process = True

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.seed = seed
        self.workdir = workdir
        self.root = root
        self.inputs = self.corpus(seed)
        self.paths = {inp.name: corpus.write_csv(inp, workdir) for inp in self.inputs}
        self.requests = self.prepare()
        self._expected: dict[str, dict] = {}
        self.wrong_reference: str | None = None

    def corpus(self, seed):
        raise NotImplementedError

    def prepare(self) -> list[Request]:
        from discrep import pointsets
        return [Request(inp, pointsets.read_csv(self.paths[inp.name])) for inp in self.inputs]

    def warm_up(self) -> None:
        smallest = min(self.requests, key=lambda r: r.inp.size)
        self.run(smallest, None)

    def run(self, request: Request, tracer):
        raise NotImplementedError

    def reference(self, inp: corpus.Input) -> dict:
        raise NotImplementedError

    def corrupt(self, expected: dict) -> dict:
        raise NotImplementedError

    def expected(self, inp: corpus.Input) -> dict:
        if inp.name not in self._expected:
            ref = self.reference(inp)
            if inp.name == self.wrong_reference:
                ref = self.corrupt(ref)
            self._expected[inp.name] = ref
        return self._expected[inp.name]

    def check(self, request: Request, summary) -> list[str]:
        raise NotImplementedError


def _l1_problems(l1, ref) -> list[str]:
    exact, value, crossed = ref
    if exact is not None:
        if not (l1.exact and l1.value == exact):
            return [f"l1 {l1.value} != exact {exact}"]
        return []
    if l1.exact:
        return [f"l1 reported exact but {crossed} cells are crossed"]
    with mp.workdps(oracle.REF_DPS):
        if mpf(l1.error) > L1_REL_ERROR * value:
            return [f"l1 enclosure too wide: {l1.error}"]
        if abs(mpf(l1.value) - value) > mpf(l1.error) + mpf(10) ** -40 * value:
            return [f"l1 enclosure {l1.value} +- {l1.error} misses {value}"]
    return []


class Norms(Workload):
    """Exact norms of moderate sets, each read back from CSV per request."""

    def corpus(self, seed):
        return corpus.norms_corpus(seed)

    def prepare(self):
        return [Request(inp, self.paths[inp.name]) for inp in self.inputs]

    def run(self, request, tracer):
        from discrep import discrepancy, pointsets
        ps = pointsets.read_csv(request.payload)
        return {
            "n": len(ps),
            "l1": discrepancy.l1_norm(ps),
            "l2": discrepancy.l2_norm_sq(ps),
            "linf": discrepancy.linf_norm(ps),
        }

    def reference(self, inp):
        pts = list(inp.points)
        return {"n": len(pts), "l1": oracle.l1(pts), "l2": oracle.l2_sq(pts), "linf": oracle.linf(pts)}

    def corrupt(self, expected):
        return {**expected, "l2": expected["l2"] + 1}

    def check(self, request, summary):
        ref = self.expected(request.inp)
        problems = [
            f"{key} {summary[key]} != {ref[key]}"
            for key in ("n", "l2", "linf") if summary[key] != ref[key]
        ]
        return problems + _l1_problems(summary["l1"], ref["l1"])


def certificate_problems(cert, ref) -> list[str]:
    """The certificate against the oracle's trees and interval-free bounds."""
    problems = []
    if cert.n != ref["n"]:
        problems.append(f"n {cert.n} != {ref['n']}")
    if cert.inner_product_sum != ref["sum"]:
        problems.append(f"inner-product sum {cert.inner_product_sum} != {ref['sum']}")
    if cert.inner_product_error != ref["error_sum"]:
        problems.append(f"inner-product error {cert.inner_product_error} != {ref['error_sum']}")
    if cert.trees_stabilized != ref["stabilized"]:
        problems.append("stabilized flag differs")
    with mp.workdps(oracle.REF_DPS):
        main, err = ref["main"], ref["err"]
        slack = INTERVAL_REL * (main + err)
        if not main - slack <= mpf(cert.main_term) <= main:
            problems.append(f"main term {cert.main_term} not just below {main}")
        if not err <= mpf(cert.error_bound) <= err + slack:
            problems.append(f"error bound {cert.error_bound} not just above {err}")
        bound = max(mpf(0), main - err)
        if not max(mpf(0), bound - slack) <= mpf(cert.l1_lower_bound) <= bound:
            problems.append(f"lower bound {cert.l1_lower_bound} not just below {bound}")
    return problems


class Certify(Workload):
    """Trees for every direction index, their inner products, the certificate."""

    def corpus(self, seed):
        return corpus.certify_corpus(seed)

    def run(self, request, tracer):
        from discrep import auxiliary, testfn
        ps = request.payload
        n = auxiliary.n_from_pointcount(len(ps))
        trees = [auxiliary.build_tree(ps, i) for i in range(n + 1)]
        ips = [auxiliary.inner_product(t) for t in trees]
        return {
            "trees": [(ip.value, ip.error, t.stabilization_level, len(t.levels))
                      for ip, t in zip(ips, trees)],
            "cert": testfn.certificate(ps, trees=trees),
        }

    def reference(self, inp):
        pts = list(inp.points)
        trees = [oracle.tree_facts(pts, i) for i in range(oracle.n_of(len(pts)) + 1)]
        return {"trees": trees, "cert": oracle.certificate_facts(len(pts), trees)}

    def corrupt(self, expected):
        return {**expected, "cert": {**expected["cert"], "sum": expected["cert"]["sum"] + 1}}

    def check(self, request, summary):
        ref = self.expected(request.inp)
        got = summary["trees"]
        want = [(t["value"], t["error"], t["l_star"], t["levels"]) for t in ref["trees"]]
        problems = [f"tree {i}: {g} != {w}" for i, (g, w) in enumerate(zip(got, want)) if g != w]
        if len(got) != len(want):
            problems.append(f"{len(got)} trees, expected {len(want)}")
        return problems + certificate_problems(summary["cert"], ref["cert"])


class Lemmas(Workload):
    """The verification suite on sets with n <= 4, where product checks run."""

    def corpus(self, seed):
        return corpus.lemmas_corpus(seed)

    def run(self, request, tracer):
        from discrep import auxiliary
        report = auxiliary.lemma_suite(request.payload)
        return {"n": report.n, "passed": report.passed,
                "checks": [(c.name, c.passed, c.witness) for c in report.checks]}

    def reference(self, inp):
        n = oracle.n_of(inp.size)
        tuples = (n >= 1) + (n >= 2)
        return {"n": n, "product_checks": 2 * tuples}

    def corrupt(self, expected):
        return {**expected, "n": expected["n"] + 1}

    def check(self, request, summary):
        ref = self.expected(request.inp)
        problems = [f"{name} failed: {witness}" for name, ok, witness in summary["checks"] if not ok]
        problems += [f"{name} skipped: {witness}" for name, _, witness in summary["checks"]
                     if "skipped" in witness]
        if summary["n"] != ref["n"]:
            problems.append(f"n {summary['n']} != {ref['n']}")
        products = sum(name.startswith("product_") for name, _, _ in summary["checks"])
        if products != ref["product_checks"]:
            problems.append(f"{products} product checks, expected {ref['product_checks']}")
        if not summary["passed"] and not problems:
            problems.append("suite reports failure")
        return problems


def _cli_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def import_seconds(stderr: bytes) -> float:
    """Import time from `-X importtime`: top-level imports from `discrep` on."""
    total, seen = 0, False
    for line in stderr.decode("utf-8", "replace").splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if name.startswith("  "):
            continue
        seen = seen or name.strip() == "discrep"
        if seen:
            total += int(cumulative)
    return total / 1e6


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def run_subprocess(cmd, cwd: Path, env: dict, out_dir: Path):
    """Run one child to completion; (exit code, stdout, stderr, start, end, maxrss KiB).

    The child is reaped with wait4 so that its own peak RSS is known.
    """
    out_path, err_path = out_dir / "child.out", out_dir / "child.err"
    previous = signal.signal(signal.SIGALRM, _alarm)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        signal.alarm(CLI_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_bytes(), err_path.read_bytes(), start, end,
            usage.ru_maxrss)


class Cli(Workload):
    """`python -m discrep.cli` subprocesses, one at a time, on small inputs."""

    in_process = False

    def corpus(self, seed):
        return corpus.cli_inputs(seed)

    def prepare(self):
        p = {inp.name: str(self.paths[inp.name]) for inp in self.inputs}
        by_name = {inp.name: inp for inp in self.inputs}
        self.env = {**os.environ, "PYTHONPATH": str(self.root / "src")}
        self.gen_seed = self.seed % (1 << 31)
        self.first_output: dict[str, tuple[bytes, bytes | None]] = {}
        self.peak_rss_kib = 0
        gen_vdc = str(self.workdir / "gen_vdc.csv")
        gen_rand = str(self.workdir / "gen_random.csv")
        specs = [
            ("gen_vdc", None, ["gen", "--kind", "vdc", "--m", "5", "--out", gen_vdc]),
            ("gen_random", None, ["gen", "--kind", "random", "--n", "16",
                                  "--seed", str(self.gen_seed), "--out", gen_rand]),
            ("norms_vdc16", "vdc16", ["norms", "--in", p["vdc16"], "--json"]),
            ("norms_primes12", "primes12", ["norms", "--in", p["primes12"], "--json"]),
            ("aux_neardup12", "neardup12", ["aux", "--in", p["neardup12"], "--json"]),
            ("certificate_vdc16", "vdc16", ["certificate", "--in", p["vdc16"], "--json"]),
            ("certificate_primes12", "primes12", ["certificate", "--in", p["primes12"], "--json"]),
            ("lemmas_boundary4", "boundary4", ["lemmas", "--in", p["boundary4"], "--json"]),
            ("comb", None, ["comb", "--n", "12", "--k", "11", "--json"]),
            ("lin", None, ["lin", "--n", "4", "--json"]),
            ("constants", None, ["constants", "--json"]),
        ]
        return [
            Request(corpus.Input(name, by_name[src].points if src else (), " ".join(argv)),
                    {"argv": argv})
            for name, src, argv in specs
        ]

    def warm_up(self):
        self.run(self.requests[-1], None)

    def run(self, request, tracer):
        argv = request.payload["argv"]
        flags = ["-X", "importtime"] if tracer is not None else []
        cmd = [sys.executable, *flags, "-m", "discrep.cli", *argv]
        code, out, err, start, end, rss = run_subprocess(cmd, self.root, self.env, self.workdir)
        self.peak_rss_kib = max(self.peak_rss_kib, rss)
        if tracer is not None:
            index = tracer.open(f"cli.{argv[0]}", start)
            tracer.record("cli.import", start, start + import_seconds(err))
            tracer.close(index, end)
        summary = {"code": code, "stdout": out, "stderr": err[-2000:] if code else b""}
        if argv[0] == "gen":
            summary["file"] = Path(argv[-1]).read_bytes()
        return summary

    def reference(self, inp):
        name = inp.name
        if name == "gen_vdc":
            return {"points": corpus.vdc(5)}
        if name == "gen_random":
            return {"points": corpus.random_uniform_points(16, self.gen_seed)}
        if name in REFERENCE["cli_stdout_sha256"]:
            return {"sha256": REFERENCE["cli_stdout_sha256"][name]}
        pts = list(inp.points)
        ref = {"n": len(pts)}
        if name.startswith(("norms_", "certificate_")):
            ref.update(l1=oracle.l1(pts), l2=oracle.l2_sq(pts), linf=oracle.linf(pts))
        if name.startswith(("aux_", "certificate_")):
            ref["trees"] = [oracle.tree_facts(pts, i) for i in range(oracle.n_of(len(pts)) + 1)]
            ref["cert"] = oracle.certificate_facts(len(pts), ref["trees"])
        return ref

    def corrupt(self, expected):
        return {**expected, "points": expected["points"][:-1]}

    def check(self, request, summary):
        name = request.inp.name
        if summary["code"] != 0:
            return [f"exit code {summary['code']}: {summary['stderr'][-300:]!r}"]
        stdout = summary["stdout"]
        output = (stdout, summary.get("file"))
        problems = [] if self.first_output.setdefault(name, output) == output else [
            "output differs from the first run"]
        ref = self.expected(request.inp)
        if "points" in ref:
            if corpus.parse_points(summary["file"]) != ref["points"]:
                problems.append("generated points differ")
            return problems
        if "sha256" in ref:
            if _cli_digest(stdout) != ref["sha256"]:
                problems.append("stdout differs from the seed's output")
            return problems
        payload = json.loads(stdout)
        kind = request.payload["argv"][0]
        if kind == "norms":
            problems += self._norms_problems(payload, ref)
        elif kind == "aux":
            trees = payload["trees"]
            if len(trees) != len(ref["trees"]):
                problems.append(f"{len(trees)} trees, expected {len(ref['trees'])}")
            for got, want in zip(trees, ref["trees"]):
                if (got["inner_product"], got["l_star"]) != (str(want["value"]), want["l_star"]):
                    problems.append(f"tree {got['i']} differs")
        elif kind == "certificate":
            problems += self._certificate_problems(payload, ref)
        elif kind == "lemmas":
            if not payload["passed"]:
                problems.append("lemmas report failed")
        return problems

    @staticmethod
    def _norms_problems(payload, ref):
        problems = []
        if payload["n_points"] != ref["n"]:
            problems.append("n_points differs")
        if payload["l2_sq"] != str(ref["l2"]) or payload["linf"] != str(ref["linf"]):
            problems.append("l2_sq or linf differs")
        # 17 significant digits are printed
        if not oracle.close(mpf(payload["l1"]), ref["l1"][1], 1e-15 + L1_REL_ERROR):
            problems.append(f"l1 {payload['l1']} differs from {ref['l1'][1]}")
        return problems

    @staticmethod
    def _certificate_problems(payload, ref):
        cert = ref["cert"]
        problems = []
        if payload["inner_product_sum"] != str(cert["sum"]):
            problems.append("inner_product_sum differs")
        with mp.workdps(oracle.REF_DPS):
            lower = mpf(payload["l1_lower_bound"])
            bound = max(mpf(0), cert["main"] - cert["err"])
            if abs(lower - bound) > 1e-15 * (cert["main"] + cert["err"]):
                problems.append(f"l1_lower_bound {lower} differs from {bound}")
            # the lower bound must not exceed the L1 norm of the same input
            if lower > ref["l1"][1] * (1 + mpf(L1_REL_ERROR)):
                problems.append(f"l1_lower_bound {lower} exceeds L1 {ref['l1'][1]}")
        return problems


WORKLOADS = {"norms": Norms, "certify": Certify, "lemmas": Lemmas, "cli": Cli}
