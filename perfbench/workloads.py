"""The benchmark's workloads: a set-up and a cycle of operations each.

Every workload drives bsradar through the public calls the roadmap keeps:
``scenario_preset``, ``synthesize_datacube``, ``run_pipeline``,
``process_cube``, ``PipelineConfig(scenario/method/window)`` and
``cubeio.save_cube`` / ``cubeio.load_cube``.  It never sets ``workers``
and never calls ``complexity_count`` or ``bsradar bench``.

Calls go through the ``bsradar`` module objects at call time, so the tracer
in ``spans.py`` can replace them with timing wrappers.  Nothing here imports
bsradar: the caller imports it (that import is part of the timed set-up)
and passes the module in.
"""

from __future__ import annotations

import sys
from pathlib import Path

WORKLOADS = ("a1-scene", "e2-methods", "e2-generate")

# Reference keys of the operations; each workload runs its cycle in order.
CYCLES = {
    "a1-scene": ("a1",),
    "e2-methods": ("e2-antenna", "e2-bs4x8"),
    "e2-generate": ("e2-cube",),
}

PRESETS = {"a1-scene": "A1", "e2-methods": "E2", "e2-generate": "E2"}


class SourceMissing(RuntimeError):
    """The checkout has no ``src/bsradar`` to benchmark."""


def import_bsradar(root: Path):
    """Import bsradar from ``root/src``, never from anywhere else."""
    src = root / "src"
    if not (src / "bsradar" / "__init__.py").is_file():
        raise SourceMissing(f"no bsradar sources under {src}")
    sys.path.insert(0, str(src))
    import bsradar

    where = Path(bsradar.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SourceMissing(f"bsradar was imported from {where}, not from {src}")
    return bsradar


def build_scenario(bsradar, workload: str, seed: int):
    return bsradar.scenario_preset(PRESETS[workload], seed=seed)


class Workload:
    """Set-up state of one workload plus its operations.

    ``run(kind)`` is the timed operation; it returns what ``checks.py``
    needs and does no checking itself.
    """

    def __init__(self, bsradar, name: str, scenario, workdir: Path):
        self.bsradar = bsradar
        self.name = name
        self.cycle = CYCLES[name]
        self.scenario = scenario
        self.workdir = workdir
        self.cube = None

    def prepare(self) -> None:
        """Set-up work beyond the scenario: e2-methods synthesizes its cube once."""
        if self.name == "e2-methods":
            self.cube = self.bsradar.synthesize_datacube(self.scenario)

    def run(self, kind: str):
        api = self.bsradar
        if kind == "a1":
            return api.run_pipeline(api.PipelineConfig(scenario=self.scenario))
        if kind == "e2-antenna":
            cfg = api.PipelineConfig(scenario=self.scenario, method="antenna-mvdr")
            return api.process_cube(self.cube, self.scenario, cfg)
        if kind == "e2-bs4x8":
            cfg = api.PipelineConfig(
                scenario=self.scenario, method="beamspace-mvdr", window=(4, 8)
            )
            return api.process_cube(self.cube, self.scenario, cfg)
        if kind == "e2-cube":
            # the `bsradar simulate` use: render the scene, write it, read it back
            cube = api.synthesize_datacube(self.scenario)
            path = self.workdir / "e2.cube"
            api.cubeio.save_cube(path, cube)
            loaded = api.cubeio.load_cube(path, cube.geometry, cube.chirp)
            return cube, loaded, path.stat().st_size
        raise ValueError(f"unknown operation {kind!r}")
