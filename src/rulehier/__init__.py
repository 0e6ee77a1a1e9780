"""Walk-based rule mining over knowledge graphs with rule hierarchies,
hierarchical pruning and link-prediction evaluation."""

from .kgstore import Interner, SplitConfig, TripleStore, resplit
from .rules import (Atom, Path, Rule, Term, format_rule, generalize,
                    instantiate, parse_rule, skolemize, specialize_templates)
from .subsumption import (a_subsumes, i_subsumes, oi_subsumes, sa_subsumes,
                          sa_subsumes_complete, theta_subsumes)
from .hierarchy import (Hierarchy, bfs_with_pruning, build_a_hierarchy,
                        build_i_hierarchy, union)
from .miner import (LearnResult, Measures, MinerConfig, evaluate,
                    generalization, is_relevant, learn, post_pruning,
                    prior_pruning, specialization)
from .evaluator import (KgcSummary, PredictionRanking, Query, evaluate_kgc,
                        hits_at, mrr, queries_for, rank, suggest)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
