"""Partition arrows, Ramsey expansions, and generalized indiscernibles
over finite first-order structures.

The core objects are :class:`Structure` (finite model with relations,
partial functions, and constants), :class:`Embedding` (injective map
preserving and reflecting atomic facts), and :class:`QfType` (canonical
pointed certificate of a tuple).  On top of them sit exhaustive partition
arrow checks with refutation certificates, type expansions, finite-class
property scans (joint embedding, amalgamation, Ramsey, orderability), and
indiscernible-sequence extraction, all exposed both as a library and
through the ``ramseykit`` command line.
"""

from .structures import (InputError, Signature, Structure, SignatureError,
                         SignatureMismatch, StructureError,
                         canonical_certificate, canonical_form,
                         generated_substructure, is_isomorphic,
                         substructure_closure)
from .embeddings import (AutomorphismGroup, Embedding, EmbeddingError,
                         automorphism_group, embeds, enumerate_embeddings,
                         first_embedding, is_rigid, iter_embeddings)
from .qftypes import (QfType, copies_of_type, enumerate_qf_copies,
                      induced_type, qf_copies_within, qftp, tuples_by_type,
                      type_digest)
from .formulas import (And, ConstTerm, EqAtom, FormulaError, FuncTerm,
                       Implies, Not, Or, Quant, RelAtom, Var, eval_formula,
                       eval_on_tuple, eval_term, formula_arity,
                       free_variables, parse_formula, parse_term,
                       render_formula, render_term)
from .arrows import (ArrowError, ArrowInstance, ArrowResult, Coloring,
                     DegreeBounds, FAILS, HOLDS, INCONCLUSIVE,
                     JointArrowResult, JointInstance, JointWitnessResult,
                     TermColoringError, arrow_check, arrow_instance,
                     build_joint_witness, check_instance, coloring_refutes,
                     find_monochromatic_copy, joint_arrow_check,
                     joint_instance, promote_arrow_witness,
                     ramsey_degree_lower, ramsey_degree_upper_probe,
                     render_cnf, subset_arrow_instance,
                     term_iteration_coloring)
from .expansions import (TypePredicateTable, TypeUnionRelation,
                         define_by_type_union, isolator,
                         qf_type_morleyisation, realized_types,
                         same_qftp_partition)
from .classes import (GENERATORS, ClassError, FiniteClass,
                      OrderabilityResult, PropertyReport, ap_check,
                      elf_minimize, erp_check, f_erp_check, finite_class,
                      graphs, hp_check, jep_check, linear_order,
                      linear_orders, order_every_member,
                      orderability_search, ordered_graphs, pure_set,
                      pure_sets, rigidity_scan)
from .indiscernibles import (ALL_FORMULAS, ExtractionResult, FormulaSet,
                             IndConstraint, IndexedSequence,
                             IndiscernibilityError, check_locally_based,
                             delta_type, extract_indiscernible_pattern,
                             finite_satisfiability_check, formula_set,
                             ind_constraints, indexed_sequence,
                             induced_type_union_relation, is_indiscernible,
                             reindex)
from .fileformat import (ParseError, SerializeError, parse_class_file,
                         parse_document, parse_sequence_file,
                         parse_structure_file, serialize_class,
                         serialize_sequence, serialize_signature,
                         serialize_structure)
from .certificates import (Certificate, CertificateError, ReplayReport,
                           coloring_lines, decode_coloring, decode_key,
                           encode_key, parse_certificate, render_certificate,
                           replay_certificate, write_certificate)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
