//! Control-flow graphs and the automata of JPortal (PLDI 2021).
//!
//! Three layers:
//!
//! * [`block`] — per-method basic-block CFGs (used by the simulated JIT and
//!   the Ball–Larus baselines),
//! * [`icfg`] — the instruction-granular **interprocedural** CFG of §4 of
//!   the paper, with fall-through, branch, switch, call, return and
//!   exception edges,
//! * [`nfa`] + [`abs`] — the ICFG viewed as a nondeterministic finite
//!   automaton (Definition 4.1), its control-flow abstraction (Definitions
//!   4.2/4.3) and the ε-free DFA used by abstraction-guided matching
//!   (Algorithm 2).
//!
//! [`tier`] implements the three-tier abstraction hierarchy of Definition
//! 5.2 (call structure → control structure → concrete instructions) used by
//! the data-recovery search.

pub mod abs;
pub mod block;
pub mod fx;
pub mod icfg;
pub mod nfa;
pub mod sym;
pub mod tier;

pub use block::{Block, BlockEdge, BlockId, Cfg};
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use icfg::{CallTargetResolver, Edge, EdgeKind, Icfg, NodeId};
pub use nfa::{MatchOutcome, MatchScratch, Nfa};
pub use sym::{BranchDir, Sym};
pub use tier::Tier;

// Lets the test-support files shared with the integration suites name
// this crate as `jportal_cfg` when the unit tests include them.
#[cfg(test)]
extern crate self as jportal_cfg;
