//! Emits routines as checked Rust: the compiled tier.
//!
//! [`emit_function`] prints a [`Function`] as a Rust `fn` that keeps the
//! interpreter's contract. Every load and store is bounds-checked and fails
//! with the interpreter's [`InterpError::OutOfBounds`] payload; division by
//! zero, the `while` budget and allocation sizes stay checked (the helpers
//! are in [`checked`](crate::ir::checked)); integer arithmetic wraps. Each
//! name gets the type [`Interpreter::run`] gives it. Definition before use is
//! checked here, at emit time, by the rule rustc applies to the emitted
//! `let`s: a read on a path where its name may still be undefined is the
//! error the interpreter would raise there, and nothing is emitted.
//!
//! An emitted routine reads its inputs from an [`Interpreter`]'s tables and
//! leaves there every scalar and buffer the interpreted routine would leave,
//! so it is a drop-in replacement for `run`. [`emit_module`] gathers routines
//! into the `@generated` [`compiled`](crate::ir::compiled) file, with the
//! `lookup` that finds one by name.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::ir::expr::{Expr, IrBinOp};
use crate::ir::interp::{Buffer, InterpError, Interpreter, Ty};
use crate::ir::printer::print_expr;
use crate::ir::stmt::{Function, Stmt};

/// What a routine parameter holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Param {
    /// An integer array (`pos`, `crd`).
    Ints,
    /// A value array.
    Floats,
    /// An integer scalar (an extent or a count).
    Int,
}

const SCALAR: usize = 0;
const BUFFER: usize = 1;

/// The names defined on every path to a point: the scalars', then the buffers'.
type Defined = [BTreeSet<String>; 2];

/// Emits `function`, whose parameters hold what `params` says, as a checked
/// Rust `fn` of the [`compiled::Routine`](crate::ir::compiled::Routine) type.
///
/// # Errors
///
/// Returns the type error `run` would return; an
/// [`InterpError::UndefinedVariable`] or [`InterpError::UndefinedBuffer`] for
/// a read its name may not be defined before; and an
/// [`InterpError::TypeError`] for what the emitter does not take: a name that
/// is not a Rust identifier, a buffer allocated on some paths only, and a
/// write to an input.
pub fn emit_function(
    function: &Function,
    params: &[(String, Param)],
) -> Result<String, InterpError> {
    let mut env = Interpreter::new();
    let mut defined = Defined::default();
    for (name, param) in params {
        ident(name)?;
        match param {
            Param::Ints => env.insert_buffer(name, Buffer::Ints(Vec::new())),
            Param::Floats => env.insert_buffer(name, Buffer::Floats(Vec::new())),
            Param::Int => env.insert_int(name, 0),
        }
        defined[usize::from(*param != Param::Int)].insert(name.clone());
    }
    ident(&function.name)?;
    let mut e = Emitter {
        types: env.typing(function)?,
        inputs: params.iter().cloned().collect(),
        ..Emitter::default()
    };
    // A first pass finds what the declarations need: which names are set
    // twice or in a loop, and which scalars the end may see undefined.
    let mut end = defined.clone();
    e.block(&function.body, &mut end)?;
    let end = &end;
    let maybe = |kind: usize| {
        e.assigned[kind]
            .keys()
            .filter(move |n| !end[kind].contains(*n))
    };
    if let Some(name) = maybe(BUFFER).next() {
        return Err(refuse(format!("`{name}` is not allocated on every path")));
    }
    let written = e
        .stored
        .iter()
        .chain(e.assigned.iter().flat_map(|names| names.keys()));
    if let Some(name) = written.clone().find(|n| e.inputs.contains_key(*n)) {
        return Err(refuse(format!("the routine writes its input `{name}`")));
    }
    e.flagged = maybe(SCALAR).cloned().collect();
    // The second pass writes the body, and records the same facts again.
    (e.assigned, e.stored, e.read, e.out) = Default::default();
    e.depth = 1;
    e.block(&function.body, &mut defined)?;
    Ok(e.finish(&function.name))
}

/// Gathers emitted routines, named as their functions are, into the
/// `@generated` module with its `lookup`; `fixtures` are routines that exist
/// to be tested, compiled under `#[cfg(test)]`.
pub fn emit_module(routines: &[(String, String)], fixtures: &[(String, String)]) -> String {
    let all = || {
        let tested = fixtures
            .iter()
            .map(|(name, code)| (name, code, "#[cfg(test)]\n"));
        routines
            .iter()
            .map(|(name, code)| (name, code, ""))
            .chain(tested)
    };
    let mut out = String::from(HEADER);
    out.push_str("/// The routine compiled ahead of time for the function named `name`.\n");
    out.push_str("pub fn lookup(name: &str) -> Option<Routine> {\n    Some(match name {\n");
    for (name, _, cfg) in all() {
        let _ = writeln!(out, "        {}{name:?} => {name},", cfg.replace('\n', " "));
    }
    out.push_str("        _ => return None,\n    })\n}\n");
    for (_, code, cfg) in all() {
        let _ = write!(out, "\n{cfg}{code}");
    }
    out
}

const HEADER: &str = "\
// @generated by `cargo test -p sparse-conv --lib compiled_routines_are_fresh`, which
// rewrites this file whenever what `codegen::generate` and `ir::emit` would put
// here differs from what is here. Do not edit it by hand.

//! Conversion routines compiled ahead of time.
//!
//! Every routine `codegen::execute_format` can serve, emitted by
//! [`emit_function`](crate::ir::emit::emit_function) from what
//! `codegen::generate` returns for it. Each runs against an [`Interpreter`]'s
//! tables with every access checked, exactly as `Interpreter::run` would run
//! the same function.

#![allow(non_snake_case, clippy::needless_late_init)]

use crate::ir::checked::*;
use crate::ir::interp::{Buffer, Interpreter};

/// A compiled routine: reads its inputs from the interpreter's tables and
/// leaves there what `Interpreter::run` would, or fails as it would.
pub type Routine = fn(&mut Interpreter) -> Checked<()>;

";

fn refuse(why: String) -> InterpError {
    InterpError::TypeError(format!("cannot emit: {why}"))
}

/// Rejects a name that cannot be spliced into a Rust identifier.
fn ident(name: &str) -> Result<(), InterpError> {
    let fits = |c: char| c.is_ascii_alphanumeric() || c == '_';
    match !name.is_empty() && name.chars().all(fits) {
        true => Ok(()),
        false => Err(refuse(format!("`{name}` is not an identifier"))),
    }
}

fn rust_ty(ty: Ty) -> &'static str {
    match ty {
        Ty::Int => "i64",
        Ty::Float => "f64",
    }
}

/// An emitted expression, its type, and whether it can stand as an operand
/// or a method receiver unparenthesised.
struct Code {
    text: String,
    ty: Ty,
    atomic: bool,
}

impl Code {
    fn atom(text: String, ty: Ty) -> Code {
        let atomic = true;
        Code { text, ty, atomic }
    }

    fn op(text: String, ty: Ty) -> Code {
        let atomic = false;
        Code { text, ty, atomic }
    }

    fn operand(&self) -> String {
        match self.atomic {
            true => self.text.clone(),
            false => format!("({})", self.text),
        }
    }

    /// The value at type `ty`, converting an int as the interpreter does.
    fn at(self, ty: Ty) -> Code {
        match (self.ty, ty) {
            (Ty::Int, Ty::Float) => Code::op(format!("{} as f64", self.operand()), ty),
            _ => self,
        }
    }
}

#[derive(Default)]
struct Emitter {
    /// Every name's type: the scalars', then the buffers'.
    types: [BTreeMap<String, Ty>; 2],
    inputs: BTreeMap<String, Param>,
    /// Per name defined in the body, whether it is set more than once or in
    /// a loop: the scalars', then the buffers' (allocations).
    assigned: [BTreeMap<String, bool>; 2],
    stored: BTreeSet<String>,
    /// The inputs the body reads.
    read: BTreeSet<String>,
    /// The scalars some path to the end leaves undefined: they start at zero
    /// with a defined flag `f_<name>`, and are left only where it is set.
    flagged: BTreeSet<String>,
    loops: usize,
    depth: usize,
    out: String,
}

impl Emitter {
    fn line(&mut self, text: &str) {
        let _ = writeln!(self.out, "{:1$}{text}", "", 4 * self.depth);
    }

    fn ty(&self, kind: usize, name: &str) -> Ty {
        self.types[kind].get(name).copied().unwrap_or(Ty::Int)
    }

    fn read(&mut self, kind: usize, name: &str, d: &Defined) -> Result<(), InterpError> {
        if !d[kind].contains(name) {
            let name = name.to_string();
            let kinds = [InterpError::UndefinedVariable, InterpError::UndefinedBuffer];
            return Err(kinds[kind](name));
        }
        if self.inputs.contains_key(name) {
            self.read.insert(name.to_string());
        }
        Ok(())
    }

    /// Records a definition of `name`, and marks it defined.
    fn define(&mut self, kind: usize, name: &str, d: &mut Defined) -> Result<(), InterpError> {
        ident(name)?;
        let again = self.loops > 0 || self.assigned[kind].contains_key(name);
        self.assigned[kind].insert(name.to_string(), again);
        d[kind].insert(name.to_string());
        Ok(())
    }

    /// Sets scalar `name` to `value` (already at its type).
    fn set(&mut self, name: &str, value: &str, d: &mut Defined) -> Result<(), InterpError> {
        self.define(SCALAR, name, d)?;
        let flag = match self.flagged.contains(name) {
            true => format!(" f_{name} = true;"),
            false => String::new(),
        };
        self.line(&format!("v_{name} = {value};{flag}"));
        Ok(())
    }

    fn nested(&mut self, body: &[Stmt], mut d: Defined) -> Result<Defined, InterpError> {
        self.depth += 1;
        self.block(body, &mut d)?;
        self.depth -= 1;
        Ok(d)
    }

    fn block(&mut self, stmts: &[Stmt], d: &mut Defined) -> Result<(), InterpError> {
        stmts.iter().try_for_each(|stmt| self.stmt(stmt, d))
    }

    fn stmt(&mut self, stmt: &Stmt, d: &mut Defined) -> Result<(), InterpError> {
        match stmt {
            Stmt::DeclScalar { name, init: value } | Stmt::Assign { name, value } => {
                let value = self.expr(value, d)?.at(self.ty(SCALAR, name));
                self.set(name, &value.text, d)?;
            }
            Stmt::Alloc { name, size, .. } => {
                let size = self.int(size, d)?;
                self.define(BUFFER, name, d)?;
                self.line(&format!("b_{name} = alloc({})?;", size.text));
            }
            Stmt::Store {
                buffer,
                index,
                value,
            } => self.store(buffer, index, value, ["|_, v| v"; 2], d)?,
            Stmt::StoreAdd {
                buffer,
                index,
                value,
            } => self.store(
                buffer,
                index,
                value,
                ["i64::wrapping_add", "|a, b| a + b"],
                d,
            )?,
            Stmt::StoreMax {
                buffer,
                index,
                value,
            } => self.store(buffer, index, value, ["i64::max", "f64::max"], d)?,
            Stmt::StoreOr {
                buffer,
                index,
                value,
            } => self.store(buffer, index, value, ["|a, b| a | b", ""], d)?,
            Stmt::For { var, lo, hi, body } => {
                let (lo, hi) = (self.int(lo, d)?, self.int(hi, d)?);
                self.line(&format!("for it in {}..{} {{", lo.operand(), hi.operand()));
                let mut inner = d.clone();
                (self.loops, self.depth) = (self.loops + 1, self.depth + 1);
                self.set(var, "it", &mut inner)?;
                self.depth -= 1;
                self.nested(body, inner)?;
                self.loops -= 1;
                self.line("}");
            }
            Stmt::While { cond, body } => {
                let cond = self.truth(cond, d)?;
                self.line("{");
                self.depth += 1;
                self.line("let mut left = env.while_budget;");
                self.line(&format!("while {cond} {{"));
                self.loops += 1;
                self.line("    tick(&mut left)?;");
                self.nested(body, d.clone())?;
                self.loops -= 1;
                self.line("}");
                self.depth -= 1;
                self.line("}");
            }
            Stmt::If {
                cond,
                then,
                otherwise,
            } => {
                let cond = self.truth(cond, d)?;
                self.line(&format!("if {cond} {{"));
                let then = self.nested(then, d.clone())?;
                let mut otherwise_defined = d.clone();
                if !otherwise.is_empty() {
                    self.line("} else {");
                    otherwise_defined = self.nested(otherwise, otherwise_defined)?;
                }
                self.line("}");
                for (after, (t, o)) in d.iter_mut().zip(then.iter().zip(&otherwise_defined)) {
                    *after = t.intersection(o).cloned().collect();
                }
            }
            Stmt::Comment(text) => self.line(&format!("// {}", text.replace('\n', " "))),
        }
        Ok(())
    }

    /// `update(index, value, &mut b_buffer, "buffer", combine)?;`, the index
    /// and the value evaluated first, in that order, as the interpreter does;
    /// `combine` is the int and the float combination (the typing has
    /// rejected a store whose float combination is empty).
    fn store(
        &mut self,
        buffer: &str,
        index: &Expr,
        value: &Expr,
        combine: [&str; 2],
        d: &Defined,
    ) -> Result<(), InterpError> {
        let ty = self.ty(BUFFER, buffer);
        let index = self.int(index, d)?.text;
        let value = self.expr(value, d)?.at(ty).text;
        self.read(BUFFER, buffer, d)?;
        self.stored.insert(buffer.to_string());
        let combine = combine[usize::from(ty == Ty::Float)];
        let args = format!("{index}, {value}, &mut b_{buffer}, {buffer:?}, {combine}");
        self.line(&format!("update({args})?;"));
        Ok(())
    }

    /// `e` as a Rust `bool`: true when it is nonzero.
    fn truth(&mut self, e: &Expr, d: &Defined) -> Result<String, InterpError> {
        Ok(match e {
            Expr::Cmp(op, l, r) => {
                let (l, r) = self.pair(l, r, d)?;
                format!("{} {} {}", l.operand(), op.symbol(), r.operand())
            }
            e => format!("{} != 0", self.int(e, d)?.operand()),
        })
    }

    fn int(&mut self, e: &Expr, d: &Defined) -> Result<Code, InterpError> {
        match self.expr(e, d)? {
            code if code.ty == Ty::Int => Ok(code),
            _ => Err(InterpError::TypeError(format!(
                "expected an int, got `{}`",
                print_expr(e)
            ))),
        }
    }

    /// Both operands, at float when either is one.
    fn pair(&mut self, l: &Expr, r: &Expr, d: &Defined) -> Result<(Code, Code), InterpError> {
        let (l, r) = (self.expr(l, d)?, self.expr(r, d)?);
        let ty = match (l.ty, r.ty) {
            (Ty::Int, Ty::Int) => Ty::Int,
            _ => Ty::Float,
        };
        Ok((l.at(ty), r.at(ty)))
    }

    fn expr(&mut self, e: &Expr, d: &Defined) -> Result<Code, InterpError> {
        let (int, float) = (Ty::Int, Ty::Float);
        Ok(match e {
            Expr::Int(i64::MIN) => Code::atom("i64::MIN".into(), int),
            Expr::Int(v) if *v < 0 => Code::op(format!("{v}_i64"), int),
            Expr::Int(v) => Code::atom(format!("{v}_i64"), int),
            Expr::Float(v) if !v.is_finite() => {
                Code::atom(format!("f64::from_bits({:#x})", v.to_bits()), float)
            }
            Expr::Float(v) if v.is_sign_negative() => Code::op(format!("{v:?}_f64"), float),
            Expr::Float(v) => Code::atom(format!("{v:?}_f64"), float),
            Expr::Var(name) => {
                self.read(SCALAR, name, d)?;
                Code::atom(format!("v_{name}"), self.ty(SCALAR, name))
            }
            Expr::Load { buffer, index } => {
                let index = self.int(index, d)?;
                self.read(BUFFER, buffer, d)?;
                let borrow = if self.inputs.contains_key(buffer) {
                    ""
                } else {
                    "&"
                };
                let text = format!("ld({borrow}b_{buffer}, {}, {buffer:?})?", index.text);
                Code::atom(text, self.ty(BUFFER, buffer))
            }
            Expr::Binary(op, l, r) => {
                let (l, r) = self.pair(l, r, d)?;
                let (lo, ro, sym) = (l.operand(), r.operand(), op.symbol());
                let wrapping = |m: &str| Code::atom(format!("{lo}.wrapping_{m}({})", r.text), int);
                match (l.ty, op) {
                    (Ty::Int, IrBinOp::Add) => wrapping("add"),
                    (Ty::Int, IrBinOp::Sub) => wrapping("sub"),
                    (Ty::Int, IrBinOp::Mul) => wrapping("mul"),
                    (Ty::Int, IrBinOp::Div) => {
                        Code::atom(format!("div({}, {})?", l.text, r.text), int)
                    }
                    (Ty::Int, IrBinOp::Rem) => {
                        Code::atom(format!("rem({}, {})?", l.text, r.text), int)
                    }
                    (Ty::Int, IrBinOp::Shl | IrBinOp::Shr) => {
                        Code::op(format!("{lo} {sym} ({ro} & 63)"), int)
                    }
                    (Ty::Int, IrBinOp::BitAnd | IrBinOp::BitOr | IrBinOp::BitXor) => {
                        Code::op(format!("{lo} {sym} {ro}"), int)
                    }
                    (Ty::Int, IrBinOp::LogicalAnd | IrBinOp::LogicalOr) => {
                        let bit = &sym[..1];
                        Code::op(format!("(({lo} != 0) {bit} ({ro} != 0)) as i64"), int)
                    }
                    (Ty::Float, IrBinOp::Add | IrBinOp::Sub | IrBinOp::Mul | IrBinOp::Div) => {
                        Code::op(format!("{lo} {sym} {ro}"), float)
                    }
                    (Ty::Float, other) => {
                        return Err(InterpError::TypeError(format!("`{other}` on floats")))
                    }
                }
            }
            Expr::Cmp(op, l, r) => {
                let (l, r) = self.pair(l, r, d)?;
                let (lo, ro, sym) = (l.operand(), r.operand(), op.symbol());
                Code::op(format!("({lo} {sym} {ro}) as i64"), int)
            }
            Expr::Not(operand) => {
                let operand = self.int(operand, d)?.operand();
                Code::op(format!("({operand} == 0) as i64"), int)
            }
            Expr::Min(l, r) | Expr::Max(l, r) => {
                let (l, r) = self.pair(l, r, d)?;
                let f = if matches!(e, Expr::Min(..)) {
                    "min"
                } else {
                    "max"
                };
                let ty = rust_ty(l.ty);
                Code::atom(format!("{ty}::{f}({}, {})", l.text, r.text), l.ty)
            }
            Expr::Select {
                cond,
                then,
                otherwise,
            } => {
                let cond = self.truth(cond, d)?;
                let (t, o) = self.pair(then, otherwise, d)?;
                let text = format!("if {cond} {{ {} }} else {{ {} }}", t.text, o.text);
                Code::op(text, t.ty)
            }
        })
    }

    /// The routine: its inputs and declarations, the body, then what it
    /// leaves in the interpreter's tables.
    fn finish(self, name: &str) -> String {
        let mut head = format!("fn {name}(env: &mut Interpreter) -> Checked<()> {{\n");
        let mut line = |text: String| _ = writeln!(head, "    {text}");
        for (input, param) in self.inputs.iter().filter(|(n, _)| self.read.contains(*n)) {
            line(match param {
                Param::Ints => format!("let b_{input} = env.input({input:?}, Buffer::as_ints)?;"),
                Param::Floats => {
                    format!("let b_{input} = env.input({input:?}, Buffer::as_floats)?;")
                }
                Param::Int => format!("let v_{input} = env.input_int({input:?})?;"),
            });
        }
        for (buffer, again) in &self.assigned[BUFFER] {
            let mutable = if *again || self.stored.contains(buffer) {
                "mut "
            } else {
                ""
            };
            let ty = rust_ty(self.ty(BUFFER, buffer));
            line(format!("let {mutable}b_{buffer}: Vec<{ty}>;"));
        }
        for (scalar, again) in &self.assigned[SCALAR] {
            let ty = rust_ty(self.ty(SCALAR, scalar));
            if self.flagged.contains(scalar) {
                line(format!(
                    "let (mut v_{scalar}, mut f_{scalar}) = (0_{ty}, false);"
                ));
            } else {
                let mutable = if *again { "mut " } else { "" };
                line(format!("let {mutable}v_{scalar}: {ty};"));
            }
        }
        let mut out = head + &self.out;
        let mut line = |text: String| _ = writeln!(out, "    {text}");
        for buffer in self.assigned[BUFFER].keys() {
            let variant = ["Ints", "Floats"][usize::from(self.ty(BUFFER, buffer) == Ty::Float)];
            line(format!(
                "env.insert_buffer({buffer:?}, Buffer::{variant}(b_{buffer}));"
            ));
        }
        for scalar in self.assigned[SCALAR].keys() {
            let insert =
                ["insert_int", "insert_float"][usize::from(self.ty(SCALAR, scalar) == Ty::Float)];
            let leave = format!("env.{insert}({scalar:?}, v_{scalar});");
            match self.flagged.contains(scalar) {
                true => line(format!("if f_{scalar} {{ {leave} }}")),
                false => line(leave),
            }
        }
        out + "    Ok(())\n}\n"
    }
}
