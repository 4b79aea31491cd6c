"""Seeded workload fuzzing with planted, verifiable problems.

The fuzzer generates random-but-valid GPU workloads from a single
integer seed, *plants* known problems (unnecessary synchronizations,
misplaced synchronizations, duplicate transfers) at known call sites,
and records a ground-truth manifest.  The validation harness then runs
every generated app through the full five-stage pipeline and checks:

* **recall** — every planted problem is detected at its planted site;
* **precision** — nothing is flagged at a non-planted site;
* **honesty** — the estimated benefit of applying exactly the planted
  fixes agrees with the *measured* saving of the fixed variant, within
  a stated tolerance — the paper's Table 1 loop, at population scale.

See docs/fuzzing_and_replay.md and the ``diogenes fuzz`` subcommand.
"""

from repro._lazy import exports

#: Exported name -> defining module, imported on first use.
_EXPORTS = {
    "FuzzedApp": "repro.fuzz.generator",
    "FuzzPlan": "repro.fuzz.generator",
    "PlantedProblem": "repro.fuzz.generator",
    "Segment": "repro.fuzz.generator",
    "build_plan": "repro.fuzz.generator",
    "CampaignResult": "repro.fuzz.validate",
    "SeedResult": "repro.fuzz.validate",
    "Tolerance": "repro.fuzz.validate",
    "run_campaign": "repro.fuzz.validate",
    "validate_seed": "repro.fuzz.validate",
}

__all__ = list(_EXPORTS)
__getattr__ = exports(__name__, _EXPORTS)
