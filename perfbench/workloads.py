"""The benchmark's workloads: the CLI calls each one makes and what it expects back.

Each workload is one closed loop with one caller.  ``setup`` is the ``synth``
call that writes the data bundle (``--seed`` and ``--out`` are appended);
``timed`` is the command whose wall time is ``run_s``.  The sizes are cut
down from the paper's desk-scale run so that one repetition takes about ten
seconds; README.md gives the reasons and the full-size figures.
"""

from __future__ import annotations

from dataclasses import dataclass

SURFACE = "ellipsoid:0.6,0.75,0.9"
TRUTH_AXES = (0.6, 0.75, 0.9)
R0 = 0.5
SYNTH_RESIDUAL_TOL = 2e-2  # the tolerance `elastoscat synth` solves to

_COMMON = ("--surface", SURFACE, "--medium", "2,1", "--radius", "1", "--kpoints", "100", "--noise", "0.05")


@dataclass(frozen=True)
class Workload:
    name: str
    setup: tuple[str, ...] | None
    timed: tuple[str, ...]
    synth_files: int  # data files the synth call of the run writes
    history_rows: int = 0  # rows of objective_history.csv for a finished invert (0: no invert)

    @property
    def inverts(self) -> bool:
        return self.timed[0] == "invert"


WORKLOADS = {
    w.name: w
    for w in (
        # 3 stages x 1 sweep x (5 iterations + the starting evaluation)
        Workload(
            "recon-desk",
            setup=("synth", *_COMMON, "--freqs", "1:3:1", "--directions", "single:0,1,0", "--n-trunc", "14"),
            timed=("invert", "--r0", str(R0), "--tau", "0.005", "--iterations", "5"),
            synth_files=3,
            history_rows=3 * 1 * 6,
        ),
        Workload(
            "synth-cube",
            setup=None,
            timed=("synth", *_COMMON, "--freqs", "3", "--directions", "preset:cube-faces", "--n-trunc", "14"),
            synth_files=6,
        ),
        # 2 stages x 1 summed sweep x (2 iterations + the starting evaluation)
        Workload(
            "recon-cube-sum",
            setup=("synth", *_COMMON, "--freqs", "1,2", "--directions", "preset:cube-faces", "--n-trunc", "10"),
            timed=("invert", "--r0", str(R0), "--tau", "0.005", "--iterations", "2", "--sum-directions"),
            synth_files=12,
            history_rows=2 * 1 * 3,
        ),
    )
}
