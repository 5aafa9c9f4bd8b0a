"""Path collections, their structural properties, and path selection.

The routing problem of the paper is defined by a *path collection*: a
multiset of directed paths, one worm per path (Section 1.1). This
subpackage provides:

* :class:`~repro.paths.collection.PathCollection` with the paper's three
  measures -- size ``n``, dilation ``D`` and path congestion ``C̃`` --
  plus the conventional edge congestion, and its mutable counterpart
  :class:`~repro.paths.collection.LivePathSet` for open systems;
* checkers for the two structural classes the theorems need:
  **leveled** and **short-cut free** collections
  (:mod:`repro.paths.properties`);
* path selection strategies for the application networks
  (:mod:`repro.paths.selection`) and routing-problem generators
  (:mod:`repro.paths.problems`);
* the adversarial lower-bound gadgets of Sections 2.2 and 3.2
  (:mod:`repro.paths.gadgets`).
"""

from repro.paths.collection import LivePathSet, PathCollection
from repro.paths.properties import (
    LevelingResult,
    compute_leveling,
    is_leveled,
    is_short_cut_free,
    shortcut_violations,
    meets_separates_remeets,
    all_pairs_meet_once,
)
from repro.paths.selection import (
    dimension_order_path,
    torus_dimension_order_path,
    mesh_path_collection,
    torus_path_collection,
    butterfly_path_collection,
    hypercube_path_collection,
    valiant_intermediate_pairs,
    shortest_path_system,
    translated_path,
)
from repro.paths.problems import (
    random_function,
    random_q_function,
    random_permutation,
    pairs_to_paths,
)
from repro.paths.gadgets import (
    type1_staircase,
    type1_triangle,
    type2_bundle,
    leveled_lower_bound_instance,
    shortcut_lower_bound_instance,
    GadgetInstance,
)

__all__ = [
    "PathCollection",
    "LivePathSet",
    "LevelingResult",
    "compute_leveling",
    "is_leveled",
    "is_short_cut_free",
    "shortcut_violations",
    "meets_separates_remeets",
    "all_pairs_meet_once",
    "dimension_order_path",
    "torus_dimension_order_path",
    "mesh_path_collection",
    "torus_path_collection",
    "butterfly_path_collection",
    "hypercube_path_collection",
    "valiant_intermediate_pairs",
    "shortest_path_system",
    "translated_path",
    "random_function",
    "random_q_function",
    "random_permutation",
    "pairs_to_paths",
    "type1_staircase",
    "type1_triangle",
    "type2_bundle",
    "leveled_lower_bound_instance",
    "shortcut_lower_bound_instance",
    "GadgetInstance",
]
