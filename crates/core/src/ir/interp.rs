//! The IR's reference semantics, compiled for tests only: the interpreter
//! that the emitter's typing and every compiled routine are checked against.
//!
//! [`Interpreter::run`] resolves a routine once, then runs it. Each name it
//! defines gets a `u32` slot in one of four typed tables (int and float
//! scalars, int and float buffers), typed from the bound inputs and every
//! definition before any use, so statement order does not matter; a name
//! defined at two types is an [`InterpError::TypeError`]. Expressions become
//! closures at their static type (an int operand of a float operation
//! converted explicitly), statements closures over the tables; constants and
//! variables are read inline, so `buf[var]`, `var ± const` and the store
//! `B_crd[pB] = j` are one closure each. The tables are the environment:
//! names are looked up when bound or resolved, never in a loop.
//!
//! Every access stays checked: bounds on every load and store, a defined bit
//! per scalar slot (an unassigned read is an [`InterpError::UndefinedVariable`]
//! when it runs, not before), missing buffers, division by zero, runaway
//! `while` loops and negative or unrepresentable allocation sizes.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use crate::ir::checked::{InterpError, WHILE_BUDGET};
use crate::ir::expr::{CmpOp, Expr, IrBinOp};
use crate::ir::printer::print_expr;
use crate::ir::stmt::{BufferKind, Function, Stmt};

/// A runtime value: a 64-bit integer or a double.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    /// Integer value.
    Int(i64),
    /// Floating-point value.
    Float(f64),
}

impl Scalar {
    /// The value as an integer.
    ///
    /// # Errors
    ///
    /// Returns a type error for floating-point values.
    pub fn as_int(self) -> Result<i64, InterpError> {
        match self {
            Scalar::Int(v) => Ok(v),
            Scalar::Float(v) => Err(InterpError::TypeError(format!(
                "expected int, got float {v}"
            ))),
        }
    }

    /// The value as a float (integers are converted).
    pub fn as_float(self) -> f64 {
        match self {
            Scalar::Int(v) => v as f64,
            Scalar::Float(v) => v,
        }
    }
}

/// A named buffer in the execution environment.
#[derive(Debug, Clone, PartialEq)]
pub enum Buffer {
    /// Integer buffer.
    Ints(Vec<i64>),
    /// Floating-point buffer.
    Floats(Vec<f64>),
}

impl Buffer {
    /// The buffer as an integer slice, or `None` if it holds floats.
    pub fn as_ints(&self) -> Option<&[i64]> {
        match self {
            Buffer::Ints(v) => Some(v),
            Buffer::Floats(_) => None,
        }
    }

    /// The buffer as a float slice, or `None` if it holds integers.
    pub fn as_floats(&self) -> Option<&[f64]> {
        match self {
            Buffer::Floats(v) => Some(v),
            Buffer::Ints(_) => None,
        }
    }
}

/// The execution environment (slot-indexed typed tables) plus the engine.
#[derive(Debug, Default, Clone)]
pub struct Interpreter {
    /// Every name's slot: scalars' at [`SCALAR`], buffers' at [`BUFFER`].
    names: [HashMap<String, Slot>; 2],
    frame: Frame,
    /// Maximum number of iterations of one `while` loop (safety net).
    pub(crate) while_budget: u64,
}

impl Interpreter {
    /// Creates an interpreter with an empty environment.
    pub fn new() -> Self {
        Interpreter {
            while_budget: WHILE_BUDGET,
            ..Interpreter::default()
        }
    }

    /// Inserts (or replaces) a named buffer.
    pub fn insert_buffer(&mut self, name: &str, buffer: Buffer) {
        let ty = match buffer {
            Buffer::Ints(_) => Ty::Int,
            Buffer::Floats(_) => Ty::Float,
        };
        let slot = self.slot(BUFFER, name, ty);
        let slot = slot.unwrap_or_else(|_| self.add(BUFFER, name, ty));
        self.frame.buffers[slot.index as usize] = Some(buffer);
    }

    /// Inserts (or replaces) a named integer scalar.
    pub fn insert_int(&mut self, name: &str, value: i64) {
        let slot = self.slot(SCALAR, name, Ty::Int);
        let slot = slot.unwrap_or_else(|_| self.add(SCALAR, name, Ty::Int));
        self.frame.ints[slot.index as usize] = Some(value);
    }

    /// Looks up a buffer by name.
    pub fn buffer(&self, name: &str) -> Option<&Buffer> {
        let slot = self.names[BUFFER].get(name)?;
        self.frame.buffers[slot.index as usize].as_ref()
    }

    /// Looks up an integer scalar by name.
    pub fn int(&self, name: &str) -> Option<i64> {
        let slot = self.names[SCALAR].get(name).filter(|s| s.ty == Ty::Int)?;
        self.frame.ints[slot.index as usize]
    }

    /// The type [`run`](Self::run) gives each name `function` reads or
    /// defines in this environment: the scalars', then the buffers'.
    ///
    /// # Errors
    ///
    /// Returns the type error `run` would return before running anything.
    pub(crate) fn typing(
        &mut self,
        function: &Function,
    ) -> Result<[BTreeMap<String, Ty>; 2], InterpError> {
        self.resolve(&function.body)?;
        let typed = |names: HashMap<String, Slot>| names.into_iter().map(|(n, s)| (n, s.ty));
        Ok(self.names.clone().map(|names| typed(names).collect()))
    }

    /// Runs a function against the current environment.
    ///
    /// # Errors
    ///
    /// Returns an [`InterpError::TypeError`], before running anything, for a
    /// name defined at two types (a name keeps the type an earlier run or
    /// insertion gave it) or an operation its operands' types do not support;
    /// otherwise the first runtime error encountered.
    pub fn run(&mut self, function: &Function) -> Result<(), InterpError> {
        let body = self.resolve(&function.body)?;
        run_block(&body, &mut self.frame).map_err(|fault| *fault)
    }

    /// Evaluates an expression in the current environment.
    ///
    /// # Errors
    ///
    /// Returns the first type or runtime error encountered.
    pub fn eval(&self, expr: &Expr) -> Result<Scalar, InterpError> {
        let value = match self.lower(expr)? {
            Lowered::Int(v) => v.get(&self.frame).map(Scalar::Int),
            Lowered::Float(v) => v.get(&self.frame).map(Scalar::Float),
        };
        value.map_err(|fault| *fault)
    }

    /// Gives `name` a fresh (undefined) slot of its kind and type.
    fn add(&mut self, kind: usize, name: &str, ty: Ty) -> Slot {
        let frame = &mut self.frame;
        let index = match (kind, ty) {
            (SCALAR, Ty::Int) => push(&mut frame.ints),
            (SCALAR, Ty::Float) => push(&mut frame.floats),
            _ => push(&mut frame.buffers),
        };
        let (key, name) = (name.to_string(), name.into());
        let slot = Slot { ty, index, name };
        // A buffer given a slot of another type frees the one it had.
        if let (BUFFER, Some(old)) = (kind, self.names[kind].insert(key, slot.clone())) {
            frame.buffers[old.index as usize] = None;
        }
        slot
    }

    /// `name`'s slot, made if missing; a type error if it has a type other than `ty`.
    fn slot(&mut self, kind: usize, name: &str, ty: Ty) -> Lowering<Slot> {
        match self.names[kind].get(name) {
            Some(slot) if slot.ty != ty => Err(InterpError::TypeError(format!(
                "{} `{name}` is defined as both {:?} and {ty:?}",
                ["scalar", "buffer"][kind],
                slot.ty
            ))),
            Some(slot) => Ok(slot.clone()),
            None => Ok(self.add(kind, name, ty)),
        }
    }

    /// `name`'s slot or, for a name nothing defines, the int slot 0 never set.
    fn find(&self, kind: usize, name: &str) -> Slot {
        let slot = self.names[kind].get(name).cloned();
        let (ty, index, name) = (Ty::Int, 0, name.into());
        slot.unwrap_or(Slot { ty, index, name })
    }

    /// Types what `body` defines, in passes until one types nothing new, and
    /// what is left as int (it reads only ints and names nothing defines).
    fn resolve(&mut self, body: &[Stmt]) -> Lowering<Vec<Exec>> {
        let typed = |this: &Self| this.names[SCALAR].len() + this.names[BUFFER].len();
        let mut before = usize::MAX;
        while typed(self) != before {
            before = typed(self);
            self.define(body, None)?;
        }
        self.define(body, Some(Ty::Int))?;
        self.block(body)
    }

    /// Gives every definition in `stmts` whose type is known, or `default`s, its slot.
    fn define(&mut self, stmts: &[Stmt], default: Option<Ty>) -> Lowering<()> {
        for stmt in stmts {
            match stmt {
                Stmt::DeclScalar { name, init: value } | Stmt::Assign { name, value } => {
                    if let Some(ty) = self.infer(value).or(default) {
                        self.slot(SCALAR, name, ty)?;
                    }
                }
                Stmt::Alloc { name, kind, .. } => _ = self.slot(BUFFER, name, *kind)?,
                Stmt::For { var, body, .. } => {
                    self.slot(SCALAR, var, Ty::Int)?;
                    self.define(body, default)?;
                }
                Stmt::While { body, .. } => self.define(body, default)?,
                Stmt::If {
                    then, otherwise, ..
                } => self
                    .define(then, default)
                    .and_then(|()| self.define(otherwise, default))?,
                _ => {}
            }
        }
        Ok(())
    }

    /// The static type of `e`, `None` while a name it reads is untyped.
    fn infer(&self, e: &Expr) -> Option<Ty> {
        let join = |l: &Expr, r: &Expr| match (self.infer(l), self.infer(r)) {
            (Some(Ty::Float), _) | (_, Some(Ty::Float)) => Some(Ty::Float),
            (l, r) => l.and(r),
        };
        let [scalars, buffers] = &self.names;
        match e {
            Expr::Int(_) | Expr::Cmp(..) | Expr::Not(_) => Some(Ty::Int),
            Expr::Float(_) => Some(Ty::Float),
            Expr::Var(name) => scalars.get(name).map(|slot| slot.ty),
            Expr::Load { buffer, .. } => buffers.get(buffer).map(|slot| slot.ty),
            Expr::Binary(_, l, r) | Expr::Min(l, r) | Expr::Max(l, r) => join(l, r),
            Expr::Select {
                then, otherwise, ..
            } => join(then, otherwise),
        }
    }

    /// Lowers `e` at its static type.
    fn lower(&self, e: &Expr) -> Lowering<Lowered> {
        use Lowered::{Float, Int};
        Ok(match e {
            Expr::Int(v) => Int(Operand::Const(*v)),
            Expr::Float(v) => Float(Operand::Const(*v)),
            Expr::Var(name) => match self.find(SCALAR, name) {
                slot if slot.ty == Ty::Int => Int(Operand::Var(slot)),
                slot => Float(Operand::Var(slot)),
            },
            Expr::Load { buffer, index } => {
                let (slot, index) = (self.find(BUFFER, buffer), self.int_of(index)?);
                match slot.ty {
                    Ty::Int => Int(computed(move |f| element(f, &slot, index.get(f)?))),
                    Ty::Float => Float(computed(move |f| element(f, &slot, index.get(f)?))),
                }
            }
            Expr::Binary(op, l, r) => match (self.lower(l)?, self.lower(r)?) {
                (Int(l), Int(r)) => Int(int_binary(*op, l, r)),
                (l, r) => Float(float_binary(*op, l.float(), r.float())?),
            },
            Expr::Cmp(op, l, r) => Int(match (self.lower(l)?, self.lower(r)?) {
                (Int(l), Int(r)) => compare(*op, l, r),
                (l, r) => compare(*op, l.float(), r.float()),
            }),
            Expr::Not(operand) => Int(compare(CmpOp::Eq, self.int_of(operand)?, Operand::Const(0))),
            Expr::Min(l, r) => match (self.lower(l)?, self.lower(r)?) {
                (Int(l), Int(r)) => Int(lift(l, r, i64::min)),
                (l, r) => Float(lift(l.float(), r.float(), f64::min)),
            },
            Expr::Max(l, r) => match (self.lower(l)?, self.lower(r)?) {
                (Int(l), Int(r)) => Int(lift(l, r, i64::max)),
                (l, r) => Float(lift(l.float(), r.float(), f64::max)),
            },
            Expr::Select {
                cond,
                then,
                otherwise,
            } => {
                let cond = self.int_of(cond)?;
                match (self.lower(then)?, self.lower(otherwise)?) {
                    (Int(t), Int(o)) => Int(select(cond, t, o)),
                    (t, o) => Float(select(cond, t.float(), o.float())),
                }
            }
        })
    }

    /// Lowers `e`, which must be an int.
    fn int_of(&self, e: &Expr) -> Lowering<Operand<i64>> {
        let Lowered::Int(v) = self.lower(e)? else {
            let message = format!("expected an int, got `{}`", print_expr(e));
            return Err(InterpError::TypeError(message));
        };
        Ok(v)
    }

    fn block(&self, stmts: &[Stmt]) -> Lowering<Vec<Exec>> {
        stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&self, stmt: &Stmt) -> Lowering<Exec> {
        Ok(match stmt {
            Stmt::DeclScalar { name, init: value } | Stmt::Assign { name, value } => {
                match self.find(SCALAR, name) {
                    slot if slot.ty == Ty::Int => set(slot, self.int_of(value)?),
                    slot => set(slot, self.lower(value)?.float()),
                }
            }
            Stmt::Alloc {
                name, kind, size, ..
            } => {
                let (slot, size) = (self.find(BUFFER, name), self.int_of(size)?);
                match kind {
                    Ty::Int => alloc(slot, size, Buffer::Ints),
                    Ty::Float => alloc(slot, size, Buffer::Floats),
                }
            }
            Stmt::Store {
                buffer,
                index,
                value,
            } => self.update(buffer, index, value, |_, v| v, Some(|_, v| v))?,
            Stmt::StoreAdd {
                buffer,
                index,
                value,
            } => self.update(buffer, index, value, i64::wrapping_add, Some(|a, b| a + b))?,
            Stmt::StoreMax {
                buffer,
                index,
                value,
            } => self.update(buffer, index, value, i64::max, Some(f64::max))?,
            Stmt::StoreOr {
                buffer,
                index,
                value,
            } => self.update(buffer, index, value, |a, b| a | b, None::<fn(_, _) -> _>)?,
            Stmt::For { var, lo, hi, body } => {
                let var = self.find(SCALAR, var).index as usize;
                let (lo, hi, body) = (self.int_of(lo)?, self.int_of(hi)?, self.block(body)?);
                exec(move |f| {
                    (lo.get(f)?..hi.get(f)?).try_for_each(|i| {
                        f.ints[var] = Some(i);
                        run_block(&body, f)
                    })
                })
            }
            Stmt::While { cond, body } => {
                let (cond, body) = (self.int_of(cond)?, self.block(body)?);
                let budget = self.while_budget;
                exec(move |f| {
                    let mut left = budget;
                    while cond.get(f)? != 0 {
                        left = left.checked_sub(1).ok_or(InterpError::IterationLimit)?;
                        run_block(&body, f)?;
                    }
                    Ok(())
                })
            }
            Stmt::If {
                cond,
                then,
                otherwise,
            } => {
                let cond = self.int_of(cond)?;
                let (then, otherwise) = (self.block(then)?, self.block(otherwise)?);
                exec(move |f| match cond.get(f)? {
                    0 => run_block(&otherwise, f),
                    _ => run_block(&then, f),
                })
            }
            Stmt::Comment(_) => exec(|_| Ok(())),
        })
    }

    /// A store into `buffer` that combines its element with the value as
    /// `int` or `float` does (`None`: the store is not defined on floats).
    fn update(
        &self,
        buffer: &str,
        index: &Expr,
        value: &Expr,
        int: impl Fn(i64, i64) -> i64 + 'static,
        float: Option<impl Fn(f64, f64) -> f64 + 'static>,
    ) -> Lowering<Exec> {
        let (slot, index) = (self.find(BUFFER, buffer), self.int_of(index)?);
        Ok(match (slot.ty, float) {
            (Ty::Int, _) => store_into(slot, index, self.int_of(value)?, int),
            (Ty::Float, Some(float)) => store_into(slot, index, self.lower(value)?.float(), float),
            (Ty::Float, None) => Err(InterpError::TypeError(format!("`{buffer}` holds floats")))?,
        })
    }
}

/// The static type of a scalar, a buffer's elements or an expression.
pub(crate) type Ty = BufferKind;
/// A runtime result; its error is boxed to keep it two words wide.
type Res<T> = Result<T, Box<InterpError>>;
/// A resolve-time outcome.
type Lowering<T> = Result<T, InterpError>;
/// A lowered expression and statement.
type Eval<T> = Box<dyn Fn(&Frame) -> Res<T>>;
type Exec = Box<dyn Fn(&mut Frame) -> Res<()>>;

/// The name spaces: scalars and buffers do not share names.
const SCALAR: usize = 0;
const BUFFER: usize = 1;

/// A name's slot in the table of its kind and type (far fewer than 2^32 fit in memory).
#[derive(Debug, Clone)]
struct Slot {
    ty: Ty,
    index: u32,
    name: Arc<str>,
}

/// The typed tables; a slot is `None` (its defined bit) until it is set, and
/// slot 0 of the int and buffer tables never is: names nothing defines read it.
#[derive(Debug, Clone)]
struct Frame {
    ints: Vec<Option<i64>>,
    floats: Vec<Option<f64>>,
    buffers: Vec<Option<Buffer>>,
}

impl Default for Frame {
    fn default() -> Self {
        let (ints, floats, buffers) = (vec![None], Vec::new(), vec![None]);
        Frame {
            ints,
            floats,
            buffers,
        }
    }
}

fn push<T>(table: &mut Vec<Option<T>>) -> u32 {
    table.push(None);
    (table.len() - 1) as u32
}

/// An element type: its scalar table, and its view of a buffer.
trait Elem: Copy + Default + PartialOrd + 'static {
    fn vars(frame: &Frame) -> &[Option<Self>];
    fn vars_mut(frame: &mut Frame) -> &mut [Option<Self>];
    fn data(buffer: &Buffer) -> Option<&[Self]>;
    fn data_mut(buffer: &mut Buffer) -> Option<&mut [Self]>;
}

macro_rules! elem {
    ($t:ty, $vars:ident, $variant:ident, $view:ident) => {
        impl Elem for $t {
            fn vars(frame: &Frame) -> &[Option<$t>] {
                &frame.$vars
            }
            fn vars_mut(frame: &mut Frame) -> &mut [Option<$t>] {
                &mut frame.$vars
            }
            fn data(buffer: &Buffer) -> Option<&[$t]> {
                buffer.$view()
            }
            fn data_mut(buffer: &mut Buffer) -> Option<&mut [$t]> {
                match buffer {
                    Buffer::$variant(data) => Some(data),
                    _ => None,
                }
            }
        }
    };
}

elem!(i64, ints, Ints, as_ints);
elem!(f64, floats, Floats, as_floats);

/// An operand as the closure using it reads it: a constant or a variable
/// inline, anything else through its own closure.
enum Operand<T> {
    Const(T),
    Var(Slot),
    Eval(Eval<T>),
}

impl<T: Elem> Operand<T> {
    #[inline(always)]
    fn get(&self, frame: &Frame) -> Res<T> {
        match self {
            Operand::Const(v) => Ok(*v),
            Operand::Var(slot) => T::vars(frame)[slot.index as usize]
                .ok_or_else(|| InterpError::UndefinedVariable(slot.name.to_string()).into()),
            Operand::Eval(e) => e(frame),
        }
    }
}

/// A lowered expression at its static type.
enum Lowered {
    Int(Operand<i64>),
    Float(Operand<f64>),
}

impl Lowered {
    /// The expression as a float, converting an int.
    fn float(self) -> Operand<f64> {
        match self {
            Lowered::Float(v) => v,
            Lowered::Int(v) => computed(move |f| Ok(v.get(f)? as f64)),
        }
    }
}

fn computed<T>(e: impl Fn(&Frame) -> Res<T> + 'static) -> Operand<T> {
    Operand::Eval(Box::new(e))
}

fn exec(s: impl Fn(&mut Frame) -> Res<()> + 'static) -> Exec {
    Box::new(s)
}

fn run_block(body: &[Exec], frame: &mut Frame) -> Res<()> {
    body.iter().try_for_each(|stmt| stmt(frame))
}

/// `op(l, r)` as one closure.
fn lift<T: Elem, U>(l: Operand<T>, r: Operand<T>, op: impl Fn(T, T) -> U + 'static) -> Operand<U> {
    computed(move |f| Ok(op(l.get(f)?, r.get(f)?)))
}

fn int_binary(op: IrBinOp, l: Operand<i64>, r: Operand<i64>) -> Operand<i64> {
    let checked = |l: Operand<i64>, r: Operand<i64>, div: fn(i64, i64) -> i64| {
        computed(move |f| match (l.get(f)?, r.get(f)?) {
            (_, 0) => Err(InterpError::DivisionByZero.into()),
            (a, b) => Ok(div(a, b)),
        })
    };
    match op {
        IrBinOp::Add => lift(l, r, i64::wrapping_add),
        IrBinOp::Sub => lift(l, r, i64::wrapping_sub),
        IrBinOp::Mul => lift(l, r, i64::wrapping_mul),
        IrBinOp::Div => checked(l, r, i64::wrapping_div),
        IrBinOp::Rem => checked(l, r, i64::wrapping_rem),
        IrBinOp::Shl => lift(l, r, |a, b| a << (b & 63)),
        IrBinOp::Shr => lift(l, r, |a, b| a >> (b & 63)),
        IrBinOp::BitAnd => lift(l, r, |a, b| a & b),
        IrBinOp::BitOr => lift(l, r, |a, b| a | b),
        IrBinOp::BitXor => lift(l, r, |a, b| a ^ b),
        IrBinOp::LogicalAnd => lift(l, r, |a, b| (a != 0 && b != 0) as i64),
        IrBinOp::LogicalOr => lift(l, r, |a, b| (a != 0 || b != 0) as i64),
    }
}

fn float_binary(op: IrBinOp, l: Operand<f64>, r: Operand<f64>) -> Lowering<Operand<f64>> {
    Ok(match op {
        IrBinOp::Add => lift(l, r, |a, b| a + b),
        IrBinOp::Sub => lift(l, r, |a, b| a - b),
        IrBinOp::Mul => lift(l, r, |a, b| a * b),
        IrBinOp::Div => lift(l, r, |a, b| a / b),
        other => Err(InterpError::TypeError(format!("`{other}` on floats")))?,
    })
}

fn compare<T: Elem>(op: CmpOp, l: Operand<T>, r: Operand<T>) -> Operand<i64> {
    lift(l, r, move |a, b| match op {
        CmpOp::Eq => (a == b) as i64,
        CmpOp::Ne => (a != b) as i64,
        CmpOp::Lt => (a < b) as i64,
        CmpOp::Le => (a <= b) as i64,
        CmpOp::Gt => (a > b) as i64,
        CmpOp::Ge => (a >= b) as i64,
    })
}

fn select<T: Elem>(cond: Operand<i64>, then: Operand<T>, otherwise: Operand<T>) -> Operand<T> {
    computed(move |f| match cond.get(f)? {
        0 => otherwise.get(f),
        _ => then.get(f),
    })
}

fn out_of_bounds(slot: &Slot, index: i64, len: usize) -> Box<InterpError> {
    let buffer = slot.name.to_string();
    InterpError::OutOfBounds { buffer, index, len }.into()
}

/// Element `index` of `slot`'s buffer, checked.
fn element<T: Elem>(frame: &Frame, slot: &Slot, index: i64) -> Res<T> {
    let data = frame.buffers[slot.index as usize].as_ref();
    let data = data.and_then(T::data);
    let data = data.ok_or_else(|| InterpError::UndefinedBuffer(slot.name.to_string()))?;
    let at = usize::try_from(index).ok().and_then(|i| data.get(i));
    Ok(*at.ok_or_else(|| out_of_bounds(slot, index, data.len()))?)
}

/// `buffer[index] = combine(buffer[index], value)` as one closure.
fn store_into<T: Elem>(
    slot: Slot,
    index: Operand<i64>,
    value: Operand<T>,
    combine: impl Fn(T, T) -> T + 'static,
) -> Exec {
    exec(move |f| {
        let (i, v) = (index.get(f)?, value.get(f)?);
        let data = f.buffers[slot.index as usize].as_mut();
        let data = data.and_then(T::data_mut);
        let data = data.ok_or_else(|| InterpError::UndefinedBuffer(slot.name.to_string()))?;
        let len = data.len();
        let cell = usize::try_from(i).ok().and_then(|i| data.get_mut(i));
        let cell = cell.ok_or_else(|| out_of_bounds(&slot, i, len))?;
        *cell = combine(*cell, v);
        Ok(())
    })
}

fn set<T: Elem>(slot: Slot, value: Operand<T>) -> Exec {
    exec(move |f| {
        let v = value.get(f)?;
        T::vars_mut(f)[slot.index as usize] = Some(v);
        Ok(())
    })
}

/// Allocates `size` zeroed elements, wrapped as `wrap` makes a buffer.
fn alloc<T: Elem>(slot: Slot, size: Operand<i64>, wrap: fn(Vec<T>) -> Buffer) -> Exec {
    exec(move |f| {
        let n = size.get(f)?;
        let len = usize::try_from(n).map_err(|_| InterpError::NegativeAllocation(n))?;
        let mut data = Vec::new();
        data.try_reserve_exact(len)
            .map_err(|_| InterpError::AllocationFailed(n))?;
        data.resize(len, T::default());
        f.buffers[slot.index as usize] = Some(wrap(data));
        Ok(())
    })
}
