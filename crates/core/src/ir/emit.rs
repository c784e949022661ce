//! Emits routines as checked Rust: the compiled tier's source. Like the
//! interpreter whose typing it reads, it is compiled for tests only; the
//! `codegen` freshness test writes what it prints into
//! [`compiled`](crate::ir::compiled).
//!
//! [`emit_function`] prints a [`Function`] as a [`Routine`](crate::ir::checked::Routine):
//! a Rust `fn` that borrows its parameters as [`Inputs`](crate::ir::checked::Inputs)
//! (integer arrays as the source stores them, each load widened to `i64`)
//! and returns the names it is asked for as [`Outputs`](crate::ir::checked::Outputs).
//! Every load and store is bounds-checked and fails with the interpreter's
//! [`InterpError::OutOfBounds`] payload; division by zero, the `while`
//! budget and allocation sizes stay checked (the helpers are in
//! [`checked`](crate::ir::checked)); integer arithmetic wraps. Each name gets
//! the type [`Interpreter::run`] gives it. Definition before use is checked
//! here, at emit time, by the rule rustc applies to the emitted `let`s: a
//! read, or an output, on a path where its name may still be undefined is the
//! error the interpreter would raise there, and nothing is emitted.
//! [`emit_module`] gathers routines into the `@generated` file, with the
//! `lookup` that finds one by name.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::ir::checked::{InterpError, Param};
use crate::ir::expr::{Expr, IrBinOp};
use crate::ir::interp::{Buffer, Interpreter, Ty};
use crate::ir::printer::print_expr;
use crate::ir::stmt::{Function, Stmt};

const SCALAR: usize = 0;
const BUFFER: usize = 1;

/// The names defined on every path to a point: the scalars', then the buffers'.
type Defined = [BTreeSet<String>; 2];

/// Whether a parameter or an output is a scalar or a buffer.
fn kind(param: Param) -> usize {
    usize::from(param != Param::Int)
}

/// Emits `function`, whose parameters hold what `params` says, as a checked
/// Rust `fn` that returns the `outputs`, each holding what its [`Param`] says.
///
/// # Errors
///
/// Returns the type error `run` would return; an
/// [`InterpError::UndefinedVariable`] or [`InterpError::UndefinedBuffer`] for
/// a read or an output its name may not be defined before; and an
/// [`InterpError::TypeError`] for what the emitter does not take: a name that
/// is not a Rust identifier, a write to an input, and an output that is an
/// input or not of its declared type.
pub fn emit_function(
    function: &Function,
    params: &[(String, Param)],
    outputs: &[(&str, Param)],
) -> Result<String, InterpError> {
    let mut interp = Interpreter::new();
    let mut defined = Defined::default();
    for (name, param) in params {
        ident(name)?;
        match param {
            Param::Ints => interp.insert_buffer(name, Buffer::Ints(Vec::new())),
            Param::Floats => interp.insert_buffer(name, Buffer::Floats(Vec::new())),
            Param::Int => interp.insert_int(name, 0),
        }
        defined[kind(*param)].insert(name.clone());
    }
    ident(&function.name)?;
    let mut e = Emitter {
        types: interp.typing(function)?,
        inputs: params.to_vec(),
        depth: 1,
        ..Emitter::default()
    };
    e.block(&function.body, &mut defined)?;
    let mut written = e
        .stored
        .iter()
        .chain(e.assigned.iter().flat_map(|names| names.keys()));
    if let Some(name) = written.find(|n| e.input(n).is_some()) {
        return Err(refuse(format!("the routine writes its input `{name}`")));
    }
    for (name, param) in outputs {
        if e.input(name).is_some() {
            return Err(refuse(format!("the routine returns its input `{name}`")));
        }
        e.read(kind(*param), name, &defined)?;
        let ty = [Ty::Int, Ty::Float][usize::from(*param == Param::Floats)];
        if e.ty(kind(*param), name) != ty {
            return Err(refuse(format!("`{name}` is not {param:?}")));
        }
    }
    Ok(e.finish(&function.name, outputs))
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
//! Every routine `codegen::execute_format` can serve, emitted by the
//! test-only `ir::emit` from what `codegen::generate` returns for it. Each
//! borrows its source's arrays as [`Inputs`] and returns what its target's
//! container is built from as [`Outputs`], with every access checked.

#![allow(non_snake_case, unused_assignments, unused_variables, clippy::needless_late_init)]

use crate::ir::checked::*;

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
    /// The parameters, in order.
    inputs: Vec<(String, Param)>,
    /// Per name defined in the body, whether it is set more than once or in
    /// a loop: the scalars', then the buffers' (allocations).
    assigned: [BTreeMap<String, bool>; 2],
    stored: BTreeSet<String>,
    /// The inputs the body reads.
    read: BTreeSet<String>,
    loops: usize,
    depth: usize,
    out: String,
}

impl Emitter {
    fn line(&mut self, text: &str) {
        let _ = writeln!(self.out, "{:1$}{text}", "", 4 * self.depth);
    }

    fn input(&self, name: &str) -> Option<Param> {
        let mut params = self.inputs.iter();
        params.find(|(n, _)| n == name).map(|(_, param)| *param)
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
        if self.input(name).is_some() {
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
        self.line(&format!("v_{name} = {value};"));
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
                self.line("let mut left = WHILE_BUDGET;");
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
                let input = self.input(buffer);
                let borrow = if input.is_some() { "" } else { "&" };
                let text = format!("ld({borrow}b_{buffer}, {}, {buffer:?})?", index.text);
                match input {
                    // The source's `usize`s, widened as they are loaded.
                    Some(Param::Ints) => Code::op(format!("{text} as i64"), Ty::Int),
                    _ => Code::atom(text, self.ty(BUFFER, buffer)),
                }
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

    /// The routine: its inputs and declarations, the body, then the outputs.
    fn finish(self, name: &str, outputs: &[(&str, Param)]) -> String {
        let mut head = format!("fn {name}(inputs: &Inputs<'_>) -> Checked<Outputs> {{\n");
        let mut line = |text: String| _ = writeln!(head, "    {text}");
        // Each kind of input is numbered in parameter order.
        let mut at = [0; 3];
        for (input, param) in &self.inputs {
            let (prefix, get) = match param {
                Param::Ints => ("b", "int_array"),
                Param::Floats => ("b", "float_array"),
                Param::Int => ("v", "int"),
            };
            if self.read.contains(input) {
                let index = at[*param as usize];
                line(format!(
                    "let {prefix}_{input} = inputs.{get}({index}, {input:?})?;"
                ));
            }
            at[*param as usize] += 1;
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
            let mutable = if *again { "mut " } else { "" };
            let ty = rust_ty(self.ty(SCALAR, scalar));
            line(format!("let {mutable}v_{scalar}: {ty};"));
        }
        let mut out = head + &self.out + "    Ok(Outputs {\n";
        for (field, param, prefix) in [
            ("ints", Param::Ints, "b"),
            ("floats", Param::Floats, "b"),
            ("scalars", Param::Int, "v"),
        ] {
            let named = outputs.iter().filter(|(_, p)| *p == param);
            let named: Vec<String> = named
                .map(|(n, _)| format!("({n:?}, {prefix}_{n})"))
                .collect();
            let _ = writeln!(out, "        {field}: vec!({}),", named.join(", "));
        }
        out + "    })\n}\n"
    }
}
