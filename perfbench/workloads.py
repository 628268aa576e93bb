"""The smallgen benchmark workloads: inputs, one timed repetition, and checks.

Every workload calls only public entry points of the package handed to it
(``sg``), always looks them up at call time (so layer spans installed on the
module globals see the calls), and never asks for more than one process.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from statistics import median

# 2*3*5*...*41: a prime p = k*PRIMORIAL_41 + 1 has r >= 13 divisor primes.
PRIMORIAL_41 = math.prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41))


@dataclass
class Rep:
    """Outputs of one repetition and the wall time of each call in it."""

    ops: int = 0
    steps: list[tuple[str, float]] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    def call(self, name: str, fn, *args, **kwargs):
        self.ops += 1
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.steps.append((name, time.perf_counter() - t0))
        return result

    def step_seconds(self, name: str) -> list[float]:
        return [dt for n, dt in self.steps if n == name]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_rows(sg, rows, expected_ps) -> int:
    """Oracle for survey rows: how many of the expected rows are missing or wrong."""
    if [r.p for r in rows] != list(expected_ps):
        return len(expected_ps)
    policy = sg.genset.SearchPolicy()
    failed = 0
    for row in rows:
        f = sg.modcore.field_spec(row.p)
        lists = (row.exact_elements, row.greedy_elements, row.elementary_elements)
        ok = (
            all(sg.genset.generates(elems, f) for elems in lists)
            and (row.h_exact, row.h_greedy, row.h_elementary) == tuple(map(len, lists))
            and row.h_exact <= row.h_greedy
            and row.h_exact <= row.h_elementary
            and row.n_used >= policy.initial_radius(row.p)
            and (row.h_exact != 1 or sg.modcore.multiplicative_order(row.exact_elements[0], f) == row.p - 1)
        )
        failed += not ok
    return failed


_EXACT_FIELDS = (
    "p", "omega", "omega_l", "h_exact", "h_greedy", "h_elementary", "n_used",
    "asymptotic_violation", "exact_elements", "greedy_elements", "elementary_elements",
)


def same_rows(a, b) -> bool:
    """Rows agree on every integer and element field (bounds are rounded floats)."""
    return len(a) == len(b) and all(
        getattr(x, f) == getattr(y, f) for x, y in zip(a, b) for f in _EXACT_FIELDS
    )


class Survey:
    """Both survey regimes in one repetition.

    survey(3, 1e5) has 9591 tiny fields, so per-row overhead, FieldSpec
    validation and the CSV codec dominate, and about 7% of its rows need the
    exact search; its CSV is written and read back, so a codec change that
    speeds one side and slows the other shows.  Then survey_row runs on
    seeded primes just above 2**62, the paper's regime, where the candidate
    scan of the three constructions dominates; survey() is not called there
    because it sieves all of [0, p_max].

    Row cost near 2**62 grows with r, the number of primes dividing p-1, so
    every seed gets the same profile: random primes with r in ``random_r``,
    taken in draw order from a pool of at least POOL random primes, and
    ``smooth`` primes p = k * PRIMORIAL_41 + 1 with k prime, so r = 14.  The
    fixed pool and profile keep set-up work and row cost comparable across
    seeds.
    """

    name = "survey"
    POOL = 16
    # sha256 of the survey_csv outputs at this commit; the primes near 2**62
    # come from the seed.
    golden_small = "708ff18cbaa075180e8926435fb75a5f03904ff7f0131b1e794e55016be33128"
    golden_64 = {
        0: "652f669019d7b70d4894c0f4e7b29209bfa7b51fa7c25cbfbf1250572ff722e0",
        1: "3575a3f0413edd4bf99374bcb2d78edbcb5fb17f5fdbe6fa99e64fffd6c59ee1",
        2: "65cfd3cc1ec641b566aac2b6ed1798b447ba583ea93dc1b214d2e632169b6de9",
        3: "b308b519c9606def38ad9fd5b1fb4ff59fc018e71bc82ae790b71066078243c7",
        4: "7a776710b8aeba8ee7c22096e8eb5cdf70f95d64c3bdb636ab05bddf9adf984c",
        5: "ce54f02294383bff693646b5fb97ca773f2a41aa6e210013391d2552b04a7659",
        6: "550366d2281c82f424cd5ec60d57b979d5a33b709a3c21c4b48473c437c0715c",
        7: "5112feb62a5c08c04c339dc7b267427cc1d06572a21907786ecdc5aa01823ef1",
        8: "65b413cae8591ec2a636b0d7e6bcac86cbc54fb7d65b809f2d99783bfda573d8",
        9: "5d4f235c3cdd5f30f39972e6e740d04edc99e4005af0ec30b207d9ce5d5ba526",
        10: "a79c2ad54fb0b46a5a3ec3919fc6708f1dda1725c226ece511e34fdc2fe41765",
        11: "dba8f6d55613f4bcc6c0697009b338ad853ba10e36e46dba5d32f87b05425be5",
        12: "5115f79ae7017e7607929adea6abdeecbc6ad90e960653b2f54f96a37387780c",
        13: "52899b593dfc0d825c94ffca11450d257c1644227433f5e48fa8935530c6d690",
        14: "28fb1b629f5556a84b219c56e1e6b8b4e7f42fe3bada03f8d8671c7531412514",
        15: "850df2b65071582efad703f6f64b528f1c2d12e28e910cb6b58f3dacd65d3670",
        16: "8c2febc37d655f787c3854bbbef124d6978358585c14898a3b34eed39678e697",
        17: "c541ece11ece2344187d4dee8e2f692d9dd901d2beca5876f66f49f1b72bebea",
        18: "d4cf1478d48652cf9d0e93f1394cb2d2c8a8f7243a24d9c2e2a2a0d0768a456a",
        19: "847843d90b5c727a7cbc76bf7995866c929673bbd26b8e36bce8d7d98862ab2a",
    }

    def __init__(self, p_max=100_000, random_r=(4, 5, 5), smooth=1, bits=62):
        self.p_max = p_max
        self.random_r = random_r
        self.smooth = smooth
        self.base = 2**bits

    def golden(self, seed: int) -> dict:
        expected = {"survey_csv": self.golden_small}
        if seed in self.golden_64:
            expected["survey_csv_64"] = self.golden_64[seed]
        return expected

    def make_inputs(self, sg, seed: int):
        rng = random.Random(seed)
        is_prime, factorize = sg.modcore.is_prime, sg.modcore.factorize
        pool: list[tuple[int, int]] = []  # (r, p) in draw order
        want = Counter(self.random_r)
        # More than POOL draws only while the pool lacks part of the profile.
        while len(pool) < self.POOL or want - Counter(r for r, _ in pool):
            p = self.base + rng.randrange(self.base >> 10) | 1
            while not is_prime(p):
                p += 2
            pool.append((len(factorize(p - 1)), p))
        primes = []
        for r in self.random_r:
            primes.append(next(p for pr, p in pool if pr == r and p not in primes))
        k = -(-self.base // PRIMORIAL_41) + rng.randrange(1000)
        for _ in range(self.smooth):
            while not (is_prime(k) and is_prime(k * PRIMORIAL_41 + 1)):
                k += 1
            primes.append(k * PRIMORIAL_41 + 1)
            k += 1
        return tuple(primes)

    def run(self, sg, inputs, rep: Rep) -> None:
        ex = sg.experiments
        rows = rep.call("survey", ex.survey, 3, self.p_max, threads=1)
        text = rep.call("survey_csv", ex.survey_csv, rows)
        back = rep.call("read_survey_csv", ex.read_survey_csv, text)
        rows_64 = [rep.call("survey_row", ex.survey_row, p) for p in inputs]
        text_64 = rep.call("survey_csv_64", ex.survey_csv, rows_64)
        rep.outputs = {"rows": rows + rows_64, "survey_csv": text, "back": back, "survey_csv_64": text_64}

    def digest(self, rep: Rep) -> dict:
        return {key: sha256(rep.outputs[key]) for key in ("survey_csv", "survey_csv_64")}

    def check(self, sg, inputs, rep: Rep) -> int:
        """Failed operations: survey (any bad row), read_survey_csv, and each bad survey_row."""
        small = [p for p in range(3, self.p_max + 1) if sg.modcore.is_prime(p)]
        rows, rows_64 = rep.outputs["rows"][: len(small)], rep.outputs["rows"][len(small) :]
        return (
            bool(check_rows(sg, rows, small))
            + (not same_rows(rows, rep.outputs["back"]))
            + check_rows(sg, rows_64, inputs)
        )

    def summary(self, rep_list) -> dict:
        survey_s = median(rep.step_seconds("survey")[0] for rep in rep_list)
        row_s = sorted(dt for rep in rep_list for dt in rep.step_seconds("survey_row"))
        return {
            "survey_s": (survey_s, "s"),
            "rows_per_s": (len(rep_list[0].outputs["back"]) / survey_s, "1/s"),
            "csv_roundtrip_s": (
                median(sum(rep.step_seconds("survey_csv") + rep.step_seconds("read_survey_csv")) for rep in rep_list),
                "s",
            ),
            "row_ms_p50": (1000 * median(row_s), "ms"),
            "rows_per_s_64": (len(row_s) / sum(row_s), "1/s"),
            "row_samples_64": (len(row_s), "count"),
        }


class Sieve:
    """density_experiment(1e8, [2, 3]) with density_csv, and one sieve_bound_check."""

    name = "sieve"

    def golden(self, seed: int) -> dict:
        return {"density_csv": "2f28f0fa31322ced176500e15491deb476063ba68e417ee3972f61fc793cf5ad", "psi": 3362157}

    def __init__(self, density_x=10**8, check_x=10**7):
        self.density_x = density_x
        self.check_x = check_x

    def make_inputs(self, sg, seed: int):
        return {
            "x": self.density_x,
            "l_values": [2, 3],
            "spec": sg.sievelab.PrimeSetSpec.threshold(self.check_x, 2),
        }

    def run(self, sg, inputs, rep: Rep) -> None:
        ex = sg.experiments
        rows = rep.call("density_experiment", ex.density_experiment, inputs["x"], inputs["l_values"])
        text = rep.call("density_csv", ex.density_csv, rows)
        report = rep.call(
            "sieve_bound_check", sg.sievelab.sieve_bound_check, inputs["spec"], u=2, v=10, epsilon=0.1
        )
        rep.outputs = {"density_csv": text, "report": report}

    def digest(self, rep: Rep) -> dict:
        return {"density_csv": sha256(rep.outputs["density_csv"]), "psi": rep.outputs["report"].psi}

    def check(self, sg, inputs, rep: Rep) -> int:
        report = rep.outputs["report"]
        ok = report.x == self.check_x and 0 < report.psi <= report.x and report.expected > 0
        return 0 if ok else 1

    def summary(self, rep_list) -> dict:
        return {
            "density_s": (
                median(sum(rep.step_seconds("density_experiment") + rep.step_seconds("density_csv")) for rep in rep_list),
                "s",
            ),
            "sieve_check_s": (median(rep.step_seconds("sieve_bound_check")[0] for rep in rep_list), "s"),
        }


WORKLOADS = {w.name: w for w in (Survey(), Sieve())}
