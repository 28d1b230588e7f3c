"""Workload definitions and seeded input generation.

A workload is a list of refinement levels. One level is one call of
``fracdiff solve`` with one scheme and one ``--n``; the program receives only
the generated command-line arguments, among them the ``--modes`` string.
Why each workload exists is written down in ``README.md`` next to this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
# The solver tolerance every level requests: the study default, passed
# explicitly so that the accuracy asked of the program stays fixed.
SOLVER_TOL = 1e-9


@dataclass(frozen=True)
class Level:
    scheme: str
    s: float
    d: int
    n: int

    @property
    def label(self) -> str:
        return f"{self.scheme}/s={self.s:g}/d={self.d}/n={self.n}"


@dataclass(frozen=True)
class Workload:
    name: str
    levels: tuple[Level, ...]
    # side length of the mode box the seeded load draws from; 0 means the
    # paper's one-eigenmode data, which no seed changes
    box: int
    mode_count: int
    # wall seconds of one untraced pass on the 2-core machine the benchmark
    # was built on; it fixes how many passes a run makes (see run.py)
    pass_s: float

    def mode_box(self) -> list[tuple[int, ...]]:
        d = self.levels[0].d
        if self.box == 0:
            return [(1,) * d]
        ks = range(1, self.box + 1)
        return [(k,) for k in ks] if d == 1 else [(k, l) for k in ks for l in ks]


def _levels(scheme, s, d, ns):
    return tuple(Level(scheme, s, d, n) for n in ns)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "figures-d2",
            _levels("hfem", 0.2, 2, (8, 16, 32, 64, 128))
            + _levels("hpfem", 0.2, 2, (8, 16, 32, 64, 128))
            + _levels("hfem", 0.8, 2, (8, 16, 32, 64, 128))
            + _levels("hpfem", 0.8, 2, (8, 16, 32, 64, 128)),
            box=0,
            mode_count=1,
            pass_s=5.0,
        ),
        Workload(
            "multimode-d2",
            _levels("hfem", 0.8, 2, (8, 16, 32, 64, 128))
            + _levels("hpfem", 0.8, 2, (8, 16, 32, 64, 128)),
            box=5,
            mode_count=12,
            pass_s=5.0,
        ),
        Workload(
            "small-s-d1",
            _levels("hpfem", 0.2, 1, (8, 16, 32, 64, 128, 256))
            + _levels("hfem", 0.2, 1, (8, 16, 32, 64, 128, 256, 512, 1024)),
            box=7,
            mode_count=6,
            pass_s=7.0,
        ),
    )
}


def load_modes(workload: Workload, seed: int) -> list[tuple[tuple[int, ...], float]] | None:
    """The seeded right-hand side as ``(index, plain-sine coefficient)``
    pairs, or ``None`` for the paper's data.

    The highest index of the box is always drawn, so the number of modes the
    trace error projects on (``k_modes``) is the same for every seed.
    Coefficients are rounded to six decimals so that the string handed to
    the program and the values the correctness check uses are identical.
    """
    if workload.box == 0:
        return None
    rng = random.Random(f"{workload.name}:{seed}")
    box = workload.mode_box()
    picked = rng.sample(box[:-1], workload.mode_count - 1) + [box[-1]]
    return [
        (index, round(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5), 6))
        for index in sorted(picked)
    ]


def modes_arg(modes) -> str:
    return ";".join(",".join(map(str, idx)) + f"={c:.6f}" for idx, c in modes)


def cli_args(level: Level, modes, out: str) -> list[str]:
    args = [
        "solve", "--scheme", level.scheme, "--s", repr(level.s),
        "--d", str(level.d), "--n", str(level.n), "--tol", repr(SOLVER_TOL),
        "--out", out,
    ]
    if modes is not None:
        args += ["--modes", modes_arg(modes)]
    return args
