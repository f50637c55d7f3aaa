"""Separation certificates for finitely generated subgroups of a free
product of a free group and a finite group.

The library builds the subgroup's folded based graph, decides membership,
extracts the free-product decomposition of the subgroup, and constructs a
prime-degree cover whose vertex action is a surjection onto an alternating
or symmetric group moving every requested outside element off the base
point.  The ``altsep`` command line drives the full pipeline and emits a
JSON certificate plus optional DOT renderings of each stage.
"""

from importlib import import_module as _import_module

from .words import Letter, Word, x_letter, y_letter, word_str
from .graphs import (
    LabeledGraph,
    TraceResult,
    fold,
    trace,
    components,
)
from .factors import (
    FiniteGroupTable,
    NotGBasedError,
    enumerate_group,
    subgroup_closure,
)
from .subgroups import (
    FreeFactor,
    ProblemSpec,
    SubgroupGraph,
    HypothesisVerdict,
    build_subgroup_graph,
    membership,
    hypothesis_check,
)
from .kurosh import KuroshDecomposition, kurosh_decompose, project_loop, verify_intersection
from .covers import (
    CoverPlan,
    GadgetParams,
    SeparatingCover,
    chain_gadget,
    mover_gadget,
    choose_prime,
    build_separating_cover,
)
# The command line module and its names load on first use.  Importing it
# here would put ``altsep.cli`` in sys.modules before ``python -m
# altsep.cli`` runs it, which Python reports with a RuntimeWarning.
_CLI_NAMES = ("parse_problem", "run_separate", "export_dot")


def __getattr__(name):
    if name == "cli" or name in _CLI_NAMES:
        cli = _import_module(".cli", __name__)
        return cli if name == "cli" else getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [name for name in dir() if not name.startswith("_")]
__all__ += ["cli", *_CLI_NAMES]
