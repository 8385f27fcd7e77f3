"""Seeded workload inputs for the benchmark.

Every input is generated from the ``--seed`` the benchmark receives; nothing
is downloaded and nothing generated is committed. The tables follow the
twelve columns of the Credit Risk schema in ``configs/credit_risk.ini``,
with heavy-tailed age and income (so the z-score rule flags a few percent of
rows) and about 12% of rows carrying an ``NA`` or empty cell in
``person_emp_length`` / ``loan_int_rate`` (so the complete-case drop path
runs, as it does on the real file).

The plan files are written out here rather than read from ``configs/``, so a
change to the shipped example config cannot change what the benchmark
measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

COLUMNS = (
    ("person_age", "numerical qi"),
    ("person_income", "numerical qi"),
    ("person_home_ownership", "categorical qi"),
    ("person_emp_length", "numerical"),
    ("loan_intent", "categorical qi"),
    ("loan_grade", "categorical"),
    ("loan_amnt", "numerical"),
    ("loan_int_rate", "numerical"),
    ("loan_status", "numerical"),
    ("loan_percent_income", "numerical"),
    ("cb_person_default_on_file", "categorical"),
    ("cb_person_cred_hist_length", "numerical"),
)

HOME = ("RENT", "MORTGAGE", "OWN", "OTHER")
INTENT = ("EDUCATION", "MEDICAL", "VENTURE", "PERSONAL", "DEBTCONSOLIDATION", "HOMEIMPROVEMENT")
GRADE = ("A", "B", "C", "D", "E", "F", "G")

QI_SECTIONS = """
[outliers]
k = 3.0
attributes = person_age person_income
combine = {combine}

[qi person_age]
comparator = gauss
offset = 5
scale = 5

[qi person_income]
comparator = gauss
offset = 1000
scale = 1000

[qi person_home_ownership]
comparator = levenshtein

[qi loan_intent]
comparator = levenshtein
"""

LADDER = "person_age person_income | person_age person_income person_home_ownership loan_intent"
SWEEP_GRID = "0.01 0.1 0.2 0.5 1.0 5.0 10.0"
TAIL = 0.03  # covers the |z| > 3 rows of both attributes
JOINT_TAIL = 0.0007


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the CLI command and the shape of its inputs."""

    name: str
    command: str  # audit | sweep | link
    rows: int  # raw rows in the original, before the complete-case drop
    params: dict = field(default_factory=dict)


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "audit-dense",
            "audit",
            11_455,
            {"combine": "any", "synth_n": 11_455, "external_variant": False},
        ),
        Workload(
            "audit-large",
            "audit",
            45_820,
            {"combine": "all", "synth_n": 11_455, "external_variant": True},
        ),
        Workload(
            "sweep-grid",
            "sweep",
            11_455,
            {"combine": "any", "synth_n": 1_146, "grid": SWEEP_GRID, "repeats": 3},
        ),
        Workload(
            "link-highcard",
            "link",
            5_000,
            {"combine": "any", "zip_clusters": 60, "zip_per_cluster": 5, "zip_change": 0.2},
        ),
    )
}


def _midpoints(n: int) -> np.ndarray:
    """The midpoints of the n strata of (0, 1), in descending order."""
    return (np.arange(n, 0, -1) - 0.5) / n


def _log_logistic(u: np.ndarray, scale: float, shape: float) -> np.ndarray:
    """Inverse CDF of the log-logistic distribution: a power-law right tail."""
    return scale * (u / (1 - u)) ** (1 / shape)


def _age_income(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Heavy-tailed age and income whose outlier counts do not depend on the seed.

    Both marginals are the same quantiles for every seed, only their order
    is random. The JOINT_TAIL share of rows with the highest ages get the
    highest incomes; every other row in the top TAIL of either attribute is
    in the bulk of the other. So the rows extreme on age, on income, and on
    both are the same in number for every seed.
    """
    tail = int(TAIL * n)
    joint = max(1, round(JOINT_TAIL * n))
    q = _midpoints(n)
    age_order = rng.permutation(n)  # age_order[k] holds the k-th highest age
    u_age = np.empty(n)
    u_age[age_order] = q
    u_income = np.empty(n)
    u_income[age_order[:joint]] = rng.permutation(q[:joint])
    bulk = age_order[tail:]
    income_tail = rng.choice(bulk, tail - joint, replace=False)
    u_income[income_tail] = q[joint:tail]
    rest = np.setdiff1d(np.arange(n), np.concatenate([age_order[:joint], income_tail]))
    u_income[rest] = rng.permutation(q[tail:])
    age = 20 + np.floor(_log_logistic(u_age, 6.5, 3.0))
    income = np.round(_log_logistic(u_income, 48_000, 4.0))
    return age, income


def _credit_columns(rng: np.random.Generator, n: int) -> dict[str, list[str]]:
    """Raw cell text for n rows, missing cells included."""
    age, income = _age_income(rng, n)
    home = rng.choice(len(HOME), n, p=(0.50, 0.41, 0.08, 0.01))
    intent = rng.integers(0, len(INTENT), n)
    grade = rng.choice(len(GRADE), n, p=(0.33, 0.32, 0.20, 0.11, 0.03, 0.008, 0.002))
    emp = np.minimum(np.floor(rng.exponential(4.8, n)), age - 16)
    amnt = np.clip(np.round(rng.lognormal(np.log(8_000), 0.6, n) / 25) * 25, 500, 35_000)
    rate = np.round(rng.normal(7.5, 1.2, n) + 1.9 * grade, 2)
    status = (rng.random(n) < 0.12 + 0.05 * grade).astype(int)
    percent = np.round(amnt / income, 2)
    default = rng.random(n) < 0.18
    hist = np.clip(np.round(2 + (age - 20) * 0.8 + rng.normal(0, 2, n)), 2, 30)

    cols = {
        "person_age": [str(int(v)) for v in age],
        "person_income": [str(int(v)) for v in income],
        "person_home_ownership": [HOME[k] for k in home],
        "person_emp_length": [str(int(v)) for v in emp],
        "loan_intent": [INTENT[k] for k in intent],
        "loan_grade": [GRADE[k] for k in grade],
        "loan_amnt": [str(int(v)) for v in amnt],
        "loan_int_rate": [f"{v:.2f}" for v in rate],
        "loan_status": [str(v) for v in status],
        "loan_percent_income": [f"{v:.2f}" for v in percent],
        "cb_person_default_on_file": ["Y" if v else "N" for v in default],
        "cb_person_cred_hist_length": [str(int(v)) for v in hist],
    }
    # Missing cells never fall on the tails of age or income, so dropping
    # incomplete rows leaves the outlier counts seed-independent.
    bulk = np.flatnonzero((age < np.quantile(age, 1 - TAIL)) & (income < np.quantile(income, 1 - TAIL)))
    emp_missing = round(0.03 * n)
    incomplete = rng.choice(bulk, emp_missing + round(0.095 * n), replace=False)
    for k, i in enumerate(incomplete):
        cols["person_emp_length" if k < emp_missing else "loan_int_rate"][i] = "NA" if k % 2 else ""
    return cols


def _zip_pool(rng: np.random.Generator, clusters: int, per_cluster: int) -> list[list[str]]:
    """Clusters of 5-digit codes; members of a cluster differ from its head in one digit."""
    seen: set[str] = set()
    pool: list[list[str]] = []
    while len(pool) < clusters:
        head = f"{rng.integers(10_000, 100_000):05d}"
        if head in seen:
            continue
        cluster = [head]
        seen.add(head)
        while len(cluster) < per_cluster:
            pos = int(rng.integers(0, 5))
            digit = str(rng.integers(0, 10))
            code = head[:pos] + digit + head[pos + 1 :]
            if code not in seen:
                seen.add(code)
                cluster.append(code)
        pool.append(cluster)
    return pool


def _one_digit_neighbours(code: str, cluster: list[str]) -> list[str]:
    return [c for c in cluster if sum(a != b for a, b in zip(c, code)) == 1]


def _leaky_copy(
    rng: np.random.Generator, cols: dict[str, list[str]], zip_clusters: dict[str, list[str]] | None, zip_change: float
) -> dict[str, list[str]]:
    """A permuted copy with small numeric noise: most outliers stay linkable."""
    n = len(cols["person_age"])
    order = rng.permutation(n)
    out = {name: [col[i] for i in order] for name, col in cols.items()}
    age_noise = rng.integers(-2, 3, n)
    income_noise = rng.normal(0.0, 0.01, n)
    for k in range(n):
        out["person_age"][k] = str(int(out["person_age"][k]) + int(age_noise[k]))
        out["person_income"][k] = str(int(round(int(out["person_income"][k]) * (1 + income_noise[k]))))
    if zip_clusters is not None:
        codes = out["zip"]
        for k in np.flatnonzero(rng.random(n) < zip_change):
            near = _one_digit_neighbours(codes[k], zip_clusters[codes[k]])
            if near:
                codes[k] = near[int(rng.integers(0, len(near)))]
    return out


def _write_csv(path: Path, cols: dict[str, list[str]]) -> None:
    lines = [",".join(cols)]
    lines.extend(",".join(row) for row in zip(*cols.values()))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _schema_section(extra: tuple[tuple[str, str], ...] = ()) -> str:
    body = "\n".join(f"{name} = {spec}" for name, spec in COLUMNS + extra)
    return f"[schema]\n{body}\n"


@dataclass(frozen=True)
class Inputs:
    """Generated files for one workload and seed, and how to call the CLI on them."""

    config: Path  # the plan (audit, sweep) or the config (link)
    original: Path
    variant: Path | None  # link only

    def argv(self, command: str, out_dir: Path) -> list[str]:
        if command == "link":
            return ["link", "-c", str(self.config), str(self.original), str(self.variant), "--out", str(out_dir)]
        return [command, "--plan", str(self.config), "--out", str(out_dir)]


def generate(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Write the workload's original, variants and plan under workdir."""
    rng = np.random.Generator(np.random.PCG64(seed))
    p = workload.params
    workdir.mkdir(parents=True, exist_ok=True)
    cols = _credit_columns(rng, workload.rows)
    original = workdir / "original.csv"
    qi = QI_SECTIONS.format(combine=p["combine"])

    if workload.command == "link":
        pool = _zip_pool(rng, p["zip_clusters"], p["zip_per_cluster"])
        codes = [c for cluster in pool for c in cluster]
        cols["zip"] = [codes[k] for k in rng.integers(0, len(codes), workload.rows)]
        by_code = {c: cluster for cluster in pool for c in cluster}
        variant = workdir / "variant.csv"
        _write_csv(original, cols)
        _write_csv(variant, _leaky_copy(rng, cols, by_code, p["zip_change"]))
        config = workdir / "link.ini"
        config.write_text(
            _schema_section((("zip", "categorical qi"),))
            + qi
            + "\n[qi zip]\ncomparator = levenshtein\nthreshold = 0.8\n",
            encoding="utf-8",
        )
        return Inputs(config, original, variant)

    _write_csv(original, cols)
    plan = [
        _schema_section(),
        qi,
        f"[synth]\nepsilon = 1.0\nn = {p['synth_n']}\nnum_bins = 32\nseed = 42\n",
        "[paths]\noriginal = original.csv\noutput_dir = out\n",
    ]
    if workload.command == "sweep":
        plan.append(f"[sweep]\ngrid = {p['grid']}\nrepeats = {p['repeats']}\nbase_seed = 0\n")
    else:
        plan.append(f"[attack]\nladder = {LADDER}\n")
        if p["external_variant"]:
            _write_csv(workdir / "external.csv", _leaky_copy(rng, cols, None, 0.0))
            plan.append("[variant external]\nfile = external.csv\n")
        plan.append("[variant dp_independent]\nepsilon = 1.0\nseed = 42\n")
    config = workdir / f"{workload.command}.ini"
    config.write_text("\n".join(plan), encoding="utf-8")
    return Inputs(config, original, None)
