"""The three benchmark workloads: configurations generated from a seed.

Every workload is one taxisim CLI command on a generated configuration.

explicit-2d    `taxisim run`, 2D 64x64, explicit stepping. Grid stencils do
               most of the work; the elliptic solver and the sweep never run.
slaved-3d      `taxisim run`, 3D 16^3, tau = 0, centred bump. The CG
               screened-Poisson solve that slaves the signal to the cells
               takes most of the time.
imex-sweep-1d  `taxisim sweep` over 8 thetas on 1D/64 with IMEX diffusion.
               Per-call overhead, small elliptic solves, the sweep layer and
               its worker pool, and diagnostics/file output at their heaviest.

How the seed enters, so that every seed has a recorded reference answer:

- explicit-2d places the Gaussian bump off-centre and lets the seed pick one
  of the box's 8 mirror/axis-permutation images of that centre. Images of
  one problem have the same answer up to round-off, so one recorded
  reference covers every seed. Step counts do not depend on the image
  either: dt is set by the diffusion limit.
- slaved-3d keeps the bump centred, because the CG iteration count of the
  tau = 0 run depends on it: an off-centre bump, even by 0.001, breaks the
  cubic symmetry and needs up to twice the iterations per step. The seed
  sets the amplitude to 0.5 + 0.005 (seed mod 8) instead, and references
  are recorded for all 8 values.
- The sweep's random-perturb seed is `seed mod 16`; references are recorded
  for all 16 values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

SWEEP_THETAS = (0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "sweep"
    dim: int
    extent: float  # per axis; the box is a cube
    cells: int  # per axis
    body: str  # config sections other than [grid], [scenario], [outputs], [sweep]
    scenario: str  # [scenario] keys other than the seeded one
    mu: float
    chi: float
    seed_classes: int  # distinct inputs, each with its own reference answer
    bump_center: tuple[float, ...] | None = None  # seed picks an image of it

    def seed_class(self, seed: int) -> int:
        return seed % self.seed_classes

    @property
    def domain_measure(self) -> float:
        return self.extent**self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.cells,) * self.dim

    def config(self, seed: int, outdir: str = "out", sweep_form: bool = False) -> str:
        """Configuration text for this seed.

        sweep_form turns a run workload into a `taxisim sweep` of two
        repetitions of the same run, for the sweep-layer metrics.
        """
        scenario = self.scenario
        if self.bump_center is not None:
            center = bump_image(self.bump_center, self.extent, seed)
            scenario += " center=" + ",".join(repr(c) for c in center)
        elif self.command == "sweep":
            scenario += f" seed={self.seed_class(seed)}"
        else:
            scenario += f" amplitude={0.5 + 0.005 * self.seed_class(seed)!r}"
        grid = (f"[grid] dim={self.dim} extent={','.join([repr(self.extent)] * self.dim)} "
                f"cells={','.join([str(self.cells)] * self.dim)}")
        lines = [grid, self.body.strip(), f"[scenario] {scenario}", f"[outputs] dir={outdir} p_values=2"]
        if self.command == "sweep":
            thetas = ",".join(repr(t) for t in SWEEP_THETAS)
            lines.append(f"[sweep] mode=fix_mu_vary_chi fixed_value={self.mu!r} theta_values={thetas}")
        elif sweep_form:
            lines.append(
                f"[sweep] mode=fix_mu_vary_chi fixed_value={self.mu!r} "
                f"theta_values={self.chi / self.mu!r} repetitions=2"
            )
        return "\n".join(lines) + "\n"


def symmetries(dim: int) -> list[tuple[tuple[int, ...], tuple[bool, ...]]]:
    """Every axis permutation combined with every set of mirrored axes."""
    return [
        (perm, flips)
        for perm in itertools.permutations(range(dim))
        for flips in itertools.product((False, True), repeat=dim)
    ]


def bump_image(center: tuple[float, ...], extent: float, seed: int) -> tuple[float, ...]:
    """The image of center under the box symmetry picked by seed."""
    options = symmetries(len(center))
    perm, flips = options[seed % len(options)]
    moved = [center[p] for p in perm]
    return tuple(extent - c if f else c for c, f in zip(moved, flips))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="explicit-2d",
            command="run",
            dim=2,
            extent=6.0,
            cells=64,
            body="""
[model] chi=1 xi=1 mu=10 tau=1
[solver] T_end=0.5 output_every=0.1
""",
            scenario="name=gaussian-bump amplitude=0.5 sigma=0.75 wbar=0.3",
            mu=10.0,
            chi=1.0,
            seed_classes=1,
            bump_center=(2.4, 3.3),
        ),
        Workload(
            name="slaved-3d",
            command="run",
            dim=3,
            extent=3.0,
            cells=16,
            body="""
[model] chi=1 xi=1 mu=1 tau=0
[solver] T_end=0.5 output_every=0.125
""",
            scenario="name=gaussian-bump sigma=0.375 wbar=0.3",
            mu=1.0,
            chi=1.0,
            seed_classes=8,
        ),
        Workload(
            name="imex-sweep-1d",
            command="sweep",
            dim=1,
            extent=6.0,
            cells=64,
            body="""
[model] chi=1 xi=1 mu=10 tau=1
[solver] T_end=0.25 output_every=0.05 time_scheme=imex-diffusion
""",
            scenario="name=random-perturb amplitude=0.3 wbar=0.3",
            mu=10.0,
            chi=1.0,
            seed_classes=16,
        ),
    )
}
