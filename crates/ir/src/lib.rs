//! StateLang: an annotated imperative language for stateful dataflow.
//!
//! The paper translates annotated **Java** programs to SDGs using the Soot
//! framework for static analysis and Javassist for bytecode generation
//! (§4.2, Fig. 3). This workspace substitutes a small imperative language,
//! *StateLang*, that preserves the interesting parts of that pipeline:
//!
//! - Java-like surface syntax with the paper's four annotations —
//!   `@Partitioned` and `@Partial` on state fields, `@Global` on state
//!   access expressions, `@Collection` on merge parameters
//!   ([`lexer`], [`parser`]);
//! - an [`ast`] with source positions for error reporting;
//! - semantic checking of annotation rules ([`analysis::check`]);
//! - state-access extraction and classification into local / partitioned /
//!   global accesses, with access-key resolution by copy propagation (the
//!   paper's "reaching expression analysis", [`analysis::access`]);
//! - live-variable analysis at statement granularity, which determines the
//!   variables each dataflow edge must carry ([`analysis::live`]);
//! - [`te::TeProgram`], the executable code block assigned to one task
//!   element — the analogue of the paper's generated TE bytecode, executed
//!   by the runtime's slot-compiled engine;
//! - the reference evaluator ([`eval`]), whose operator and accessor
//!   kernels are the one definition of the language's value semantics:
//!   the runtime's engine, key resolution's constant folding and the
//!   verifier all call them.
//!
//! Grammar sketch (see [`parser`] for the full rules):
//!
//! ```text
//! program   := field* method*
//! field     := annotation? type ident ';'
//! method    := type ident '(' params ')' block
//! stmt      := 'let' ident '=' expr ';'            // also '@Partial let'
//!            | ident '=' expr ';'
//!            | 'if' '(' expr ')' block ('else' block)?
//!            | 'while' '(' expr ')' block
//!            | 'foreach' '(' ident ':' expr ')' block
//!            | 'return' expr? ';' | 'emit' expr ';' | expr ';'
//! expr      := literals | ident | expr BINOP expr | '!'expr | '-'expr
//!            | expr '[' expr ']' | ident '(' args ')'
//!            | '@Global'? ident '.' ident '(' args ')'   // state access
//!            | '@Collection' ident
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod ast;
pub mod builtins;
pub mod cfg;
pub mod diag;
pub mod eval;
pub mod lexer;
pub mod parser;
pub mod te;
pub mod te_compiled;

pub use ast::{Expr, FieldAnn, FieldDecl, Method, Program, Stmt};
pub use parser::parse_program;
pub use te::TeProgram;
pub use te_compiled::CompiledTe;
