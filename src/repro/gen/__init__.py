"""Random-circuit generation and differential fuzzing.

The catalogue in :mod:`repro.circuits` exercises the flow on 37 fixed
benchmarks; this package manufactures **unlimited** new workloads and
turns every flow variant into a property under test:

* :mod:`repro.gen.families` — seeded, parameterised random-circuit
  families (combinational DAGs, arithmetic mutants, Mealy/Moore
  machines), bit-identical across processes from ``(family, params,
  seed)``;
* :mod:`repro.gen.spec` — :class:`GenSpec` triples with a canonical,
  parseable name grammar (``gen:<family>:<k=v,...>:s<seed>``) that the
  circuit registry resolves on the fly, so generated circuits flow
  through the whole eval/verify machinery like catalogued ones;
* :mod:`repro.gen.fuzz` — differential campaigns crossing generated
  circuits with the named flow variants of
  :data:`repro.core.flowgraph.FLOW_VARIANTS`, judged by the
  pulse-accurate equivalence oracle of :mod:`repro.verify`;
* :mod:`repro.gen.shrink` — greedy counterexample shrinking to
  1-minimal failing netlists.

Scheduling: :meth:`repro.eval.runner.Runner.campaign` over a
:class:`FuzzBatch`.  CLI: ``repro fuzz``.
Documentation: ``docs/fuzzing.md``.
"""

from .families import (
    FAMILIES,
    FamilyInfo,
    arith_mutant,
    family_info,
    random_dag,
    random_fsm,
    register_family,
)
from .spec import (
    GenSpec,
    build_named,
    generate_specs,
    is_gen_name,
    parse_name,
    register_spec,
    resolve,
)
from .shrink import ShrinkResult, shrink_network
from .fuzz import (
    DEFAULT_FLOWS,
    FuzzBatch,
    FuzzCampaign,
    FuzzReport,
    FuzzUnit,
    replay_line,
    shrink_unit,
)

__all__ = [
    "FAMILIES",
    "FamilyInfo",
    "arith_mutant",
    "family_info",
    "random_dag",
    "random_fsm",
    "register_family",
    "GenSpec",
    "build_named",
    "generate_specs",
    "is_gen_name",
    "parse_name",
    "register_spec",
    "resolve",
    "ShrinkResult",
    "shrink_network",
    "DEFAULT_FLOWS",
    "FuzzBatch",
    "FuzzCampaign",
    "FuzzReport",
    "FuzzUnit",
    "replay_line",
    "shrink_unit",
]
