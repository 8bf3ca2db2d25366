"""KDD-shaped synthetic connection records for the benchmark.

The real KDD Cup 1999 files are not part of the repository, so the benchmark
generates files with the properties that the pipeline's cost and behaviour
depend on:

- the class mix of the 10% training file (normal 97,280, probe 4,107,
  dos 391,458, u2r 52, r2l 1,124), scaled to the requested size with a floor
  per class, and the attack names of each class in their 10%-file shares;
- a set share of exact-duplicate lines (Tavallaee et al., "A Detailed
  Analysis of the KDD CUP 99 Data Set", CISDA 2009, report about 70% in the
  10% file);
- several tight sub-clusters per attack name, which fix how many chromosomes
  training yields;
- heavy-tailed duration, byte and count features next to rate features in
  [0,1];
- optionally, counted malformed lines and lines whose attack name is not in
  the package's mapping.

Test records are fresh points from the training sub-clusters. A set share of
them carries the other side's features (a normal label on an attack's
connection, or an attack label on a normal one), as KDD's contradictory
records do. The false-positive and detection rates are then set by
construction rather than by which points a seed happens to draw.

Every well-formed line is written by ``gaids.synth.format_line``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gaids.ingest import CATEGORIES
from gaids.synth import format_line

# Class counts of kddcup.data_10_percent (acceptance criterion 9).
KDD_CLASS_COUNTS = {"normal": 97280, "probe": 4107, "dos": 391458, "u2r": 52, "r2l": 1124}

# Attack names within each class, weighted by their counts in the same file.
KDD_NAME_WEIGHTS = {
    "normal": {"normal": 97280},
    "probe": {"satan": 1589, "ipsweep": 1247, "portsweep": 1040, "nmap": 231},
    "dos": {"smurf": 280790, "neptune": 107201, "back": 2203, "teardrop": 979,
            "pod": 264, "land": 21},
    "u2r": {"buffer_overflow": 30, "rootkit": 10, "loadmodule": 9, "perl": 3},
    "r2l": {"warezclient": 1020, "guess_passwd": 53, "warezmaster": 20, "imap": 12,
            "ftp_write": 8, "multihop": 7, "phf": 4, "spy": 2},
}

# Names absent from gaids.ingest.ATTACK_CATEGORIES: lenient ingest maps them
# to the fallback category, strict ingest rejects them.
UNKNOWN_NAMES = ("mailflood", "dnstunnel", "sshscan")

# Positions within the 38 numeric features.
HEAVY = (0, 1, 2)  # duration, src_bytes, dst_bytes
SMALL_COUNTS = (4, 5, 6, 7, 9, 12, 13, 14, 15)  # wrong_fragment ... num_access_files
FLAGS = (3, 8, 10, 11, 17, 18)  # land, logged_in, root_shell, su_attempted, is_*_login
COUNTS = (19, 20, 28, 29)  # count, srv_count, dst_host_count, dst_host_srv_count
COUNT_MAX = np.array([511.0, 511.0, 255.0, 255.0])
RATES = tuple(range(21, 28)) + tuple(range(30, 38))
# Feature 16 (num_outbound_cmds) stays 0, as in every KDD line.

# Sub-cluster centres take these levels on the rate and count features.
_LEVELS = np.linspace(0.0, 1.0, 5)
# Spread of a sub-cluster's rate and count features, on the [0,1] scale.
NOISE = 0.02
# Share of test records that carry the other side's features.
CONTRADICTORY_SHARE = 0.10
# Training and test records per class, at least.
MIN_PER_CLASS = 5
# Relative jitter of the heavy-tailed features inside one sub-cluster.
_HEAVY_JITTER = 0.02
_MAX_REDRAWS = 1000


@dataclass(frozen=True)
class Spec:
    """What one workload's files hold. Counts are exact, not expectations."""

    train_records: int  # training lines with a known attack name
    test_records: int
    subclusters: int  # target total over all attack names
    duplicate_share: float = 0.70  # exact-duplicate share of the known-name lines
    malformed: int = 0  # training lines that ingest must reject
    unknown: int = 0  # training lines with a name from UNKNOWN_NAMES


@dataclass
class Dataset:
    train_lines: list[str]
    test_lines: list[str]
    train_class_counts: dict[str, int]  # known-name training lines per class
    test_class_counts: dict[str, int]
    duplicate_lines: int  # known-name training lines repeating an earlier one
    malformed: int
    unknown: int
    subclusters: int

    @property
    def train_records(self) -> int:
        """Training lines that lenient ingest keeps."""
        return len(self.train_lines) - self.malformed


def apportion(total: int, weights: dict[str, float], floor: int = 0) -> dict[str, int]:
    """Split `total` in proportion to `weights` by largest remainder, giving
    every key at least `floor`. The parts sum to `total` exactly."""
    names = list(weights)
    rest = total - floor * len(names)
    if rest < 0:
        raise ValueError(f"{total} cannot give {len(names)} parts at least {floor} each")
    w = np.array([weights[n] for n in names], dtype=np.float64)
    raw = rest * w / w.sum()
    base = np.floor(raw).astype(int)
    order = sorted(range(len(names)), key=lambda i: (-(raw[i] - base[i]), i))
    for i in order[: rest - int(base.sum())]:
        base[i] += 1
    return {n: floor + int(b) for n, b in zip(names, base)}


def _centre(rng: np.random.Generator) -> np.ndarray:
    c = np.zeros(38)
    c[list(RATES)] = rng.choice(_LEVELS, len(RATES))
    c[list(COUNTS)] = np.round(rng.choice(_LEVELS, len(COUNTS)) * COUNT_MAX)
    c[list(FLAGS)] = rng.random(len(FLAGS)) < 0.3
    small = rng.random(len(SMALL_COUNTS)) < 0.15
    c[list(SMALL_COUNTS)] = np.where(small, np.floor(rng.pareto(1.5, len(SMALL_COUNTS)) + 1), 0)
    c[0] = np.round(rng.lognormal(3.0, 2.0)) if rng.random() < 0.2 else 0.0
    c[1] = np.round(rng.lognormal(6.0, 2.5))
    c[2] = np.round(rng.lognormal(7.0, 2.5)) if rng.random() < 0.5 else 0.0
    return c


def _point(centre: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    x = centre.copy()
    rates, counts, heavy = list(RATES), list(COUNTS), list(HEAVY)
    x[rates] = np.round(np.clip(centre[rates] + rng.normal(0.0, NOISE, len(rates)), 0, 1), 2)
    x[counts] = np.round(np.clip(centre[counts] + rng.normal(0.0, NOISE, len(counts)) * COUNT_MAX, 0, COUNT_MAX))
    x[heavy] = np.round(centre[heavy] * np.exp(rng.normal(0.0, _HEAVY_JITTER, len(heavy))))
    return x


def _malform(line: str, kind: int) -> str:
    """A line that ingest rejects, one of five kinds."""
    fields = line.split(",")
    if kind == 0:
        fields = fields[:-2]  # too few fields
    elif kind == 1:
        fields.insert(5, "0")  # too many fields
    elif kind == 2:
        fields[4] = "n/a"  # non-numeric src_bytes
    elif kind == 3:
        fields[0] = "nan"  # non-finite duration
    else:
        fields[-1] = "."  # empty label
    return ",".join(fields)


def generate(spec: Spec, seed: int) -> Dataset:
    """Training and test lines for `spec`; the same seed gives the same lines."""
    rng = np.random.Generator(np.random.PCG64(seed % 2**64))

    class_counts = apportion(spec.train_records, KDD_CLASS_COUNTS, MIN_PER_CLASS)
    name_counts: dict[str, int] = {}
    for cls in CATEGORIES:
        for name, n in apportion(class_counts[cls], KDD_NAME_WEIGHTS[cls]).items():
            if n:
                name_counts[name] = n
    distinct = apportion(round(spec.train_records * (1.0 - spec.duplicate_share)), name_counts)
    distinct = {n: max(1, min(name_counts[n], d)) for n, d in distinct.items()}
    clusters = apportion(spec.subclusters, {n: math.sqrt(c) for n, c in name_counts.items()}, 1)
    # Two distinct lines per sub-cluster where the name has them: a single
    # distinct line trains a zero-spread chromosome, which never wins.
    clusters = {n: max(1, min(k, distinct[n] // 2)) for n, k in clusters.items()}
    centres = {n: [_centre(rng) for _ in range(k)] for n, k in clusters.items()}

    seen: set[str] = set()

    def fresh_line(name: str, centre: np.ndarray) -> str:
        for _ in range(_MAX_REDRAWS):
            line = format_line(_point(centre, rng), name)
            if line not in seen:
                seen.add(line)
                return line
        raise RuntimeError(f"cannot draw a distinct {name} line")

    train: list[str] = []
    mass: dict[str, np.ndarray] = {}  # distinct training lines per sub-cluster
    for name, n in name_counts.items():
        k = clusters[name]
        # Every sub-cluster gets up to two lines; the rest go to sub-clusters
        # with weights falling as 1/sqrt(rank), so sizes are skewed.
        weights = 1.0 / np.sqrt(np.arange(1, k + 1))
        base = np.tile(np.arange(k), min(2, distinct[name] // k))
        picks = np.concatenate([base, rng.choice(k, distinct[name] - len(base), p=weights / weights.sum())])
        mass[name] = np.bincount(picks, minlength=k).astype(np.float64)
        unique = [fresh_line(name, centres[name][j]) for j in picks]
        train.extend(unique)
        train.extend(unique[i] for i in rng.integers(0, len(unique), n - len(unique)))
    duplicates = len(train) - len(set(train))

    all_centres = [(n, c) for n, cs in centres.items() for c in cs]
    for i in range(spec.unknown):
        _, centre = all_centres[rng.integers(len(all_centres))]
        train.append(format_line(_point(centre, rng), UNKNOWN_NAMES[i % len(UNKNOWN_NAMES)]))
    for i in range(spec.malformed):
        name, centre = all_centres[rng.integers(len(all_centres))]
        train.append(_malform(format_line(_point(centre, rng), name), i % 5))
    train = [train[i] for i in rng.permutation(len(train))]

    test_counts = apportion(spec.test_records, KDD_CLASS_COUNTS, MIN_PER_CLASS)
    # Test records come from sub-clusters in proportion to their training mass.
    sources = {n: (cs, mass[n] / mass[n].sum()) for n, cs in centres.items()}
    attack_mass = np.concatenate([mass[n] for n in centres if n != "normal"])
    sources["<attack>"] = ([c for n, cs in centres.items() if n != "normal" for c in cs],
                           attack_mass / attack_mass.sum())
    test: list[str] = []
    for cls in CATEGORIES:
        present = {n: w for n, w in KDD_NAME_WEIGHTS[cls].items() if n in name_counts}
        labels = [n for n, m in apportion(test_counts[cls], present).items() for _ in range(m)]
        flip = set(rng.choice(len(labels), round(CONTRADICTORY_SHARE * len(labels)), replace=False).tolist())
        for i, name in enumerate(labels):
            pool, p = sources[("<attack>" if cls == "normal" else "normal") if i in flip else name]
            centre = pool[rng.choice(len(pool), p=p)]
            test.append(format_line(_point(centre, rng), name))
    test = [test[i] for i in rng.permutation(len(test))]

    return Dataset(
        train_lines=train,
        test_lines=test,
        train_class_counts=class_counts,
        test_class_counts=test_counts,
        duplicate_lines=duplicates,
        malformed=spec.malformed,
        unknown=spec.unknown,
        subclusters=sum(clusters.values()),
    )


def write_lines(path, lines: list[str]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

