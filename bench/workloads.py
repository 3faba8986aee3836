"""The benchmark's workloads and the inputs each seed gives them.

Every workload is one ``gicee`` command line.  Seed 0 runs the built-in
preset exactly; any other seed jitters the preset's six channel values by a
few seeded percent and passes them inline, so the program only ever sees
the generated inputs.  Reference frontiers are stored for ``REF_SEEDS``
jitters, and a seed selects jitter ``seed % REF_SEEDS``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

REF_SEEDS = 16
JITTER = 0.03

# Copied from the program's presets so that a seed's inputs do not move
# when the program changes.
PRESETS = {
    "fig2": (1.9, 1.9, 0.5, 0.5, 10.0, 10.0),
    "fig3": (1.9, 1.0, 0.5, 1.6, 10.0, 10.0),
}
CHANNEL_FLAGS = ("c12", "c21", "c1e", "c2e", "p1", "p2")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    preset: str
    variant: str
    steps: int
    states: int

    def channel(self, seed: int) -> tuple[float, ...]:
        """The six channel values (c12, c21, c1e, c2e, p1, p2) of a seed."""
        index = seed % REF_SEEDS
        base = PRESETS[self.preset]
        if index == 0:
            return base
        rng = np.random.default_rng(index)
        return tuple(round(v * (1.0 + rng.uniform(-JITTER, JITTER)), 6) for v in base)

    def argv(self, seed: int, out: str) -> list[str]:
        """CLI arguments after ``gicee`` for this seed, writing to ``out``."""
        args = [self.command]
        if seed % REF_SEEDS == 0:
            args += ["--preset", self.preset]
        else:
            for flag, value in zip(CHANNEL_FLAGS, self.channel(seed)):
                args += [f"--{flag}", repr(value)]
        args += ["--variant", self.variant, "--steps", str(self.steps)]
        if self.states > 1:
            args += ["--states", str(self.states)]
        return args + ["--out", out]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("r3-fig3", "region", "fig3", "r3", 11, 1),
        Workload("timeshare-fig3", "region", "fig3", "r3", 3, 2),
        Workload("ctdma-fig2", "ctdma", "fig2", "ctdma", 17, 1),
    )
}
