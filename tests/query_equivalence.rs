//! Equivalence sweep of the columnar, hash-free generic driver against the
//! row-at-a-time code it replaced.
//!
//! * Attribute queries: `evaluate_on_coords` and `evaluate_on_rows` against
//!   the `HashSet` evaluator they replaced, kept below as the reference, over
//!   every aggregate (`count` of one or two variables, `id`, `min`, `max`),
//!   zero to two group-by dimensions, negative lower bounds, extents beyond
//!   16 × nnz, empty inputs, duplicates, and out-of-bounds, arity and
//!   unknown-name errors.
//! * Remappings: `EvalContext::apply_columns` and `EvalContext::apply`
//!   against the coordinate-at-a-time `HashMap` evaluator they replaced, also
//!   kept below, over random expressions with lets, parameters, counters
//!   used more than once, and failing operators.
//! * The driver: `convert_with_spec` on the four `custom_format` specs, the
//!   stock specs (ELL's `#i` counter and skyline among them) and the
//!   `spec_fuzz` corpus digests to the values the row-at-a-time driver
//!   produced, and duplicate coordinates are a typed error for specs that do
//!   not sort as well as for those that do.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use taco_conversion_repro::conv::{convert, AnyTensor, ConvertError, Format};
use taco_conversion_repro::formats::CooMatrix;
use taco_conversion_repro::query::eval::{evaluate_on_coords, evaluate_on_rows};
use taco_conversion_repro::query::{Aggregate, AttrQuery, QueryError, QueryField, QueryResult};
use taco_conversion_repro::remap::{
    BinOp, DstIndex, EvalContext, IndexExpr, RemapError, Remapping,
};
use taco_conversion_repro::runtime::{ConversionService, ServiceConfig};
use taco_conversion_repro::tensor::{DimBounds, SparseTriples};

/// The evaluators as they were before: a `HashSet` of coordinate tuples per
/// `count` field, and a `HashMap` per counter, one coordinate at a time.
mod reference {
    use super::*;

    pub fn evaluate(
        query: &AttrQuery,
        dim_names: &[String],
        bounds: &[DimBounds],
        coords: &[Vec<i64>],
    ) -> Result<QueryResult, QueryError> {
        let dim_of = |name: &str| -> Result<usize, QueryError> {
            dim_names
                .iter()
                .position(|n| n == name)
                .ok_or_else(|| QueryError::UnknownIndexVariable(name.to_string()))
        };
        let group_dims: Vec<usize> = query
            .group_by
            .iter()
            .map(|g| dim_of(g))
            .collect::<Result<_, _>>()?;
        let group_bounds: Vec<DimBounds> = group_dims.iter().map(|&d| bounds[d]).collect();
        let mut result = QueryResult::new(query, group_bounds);
        let mut field_dims: Vec<Vec<usize>> = Vec::new();
        for field in &query.fields {
            let dims = field.aggregate.vars().into_iter().map(dim_of);
            field_dims.push(dims.collect::<Result<_, _>>()?);
        }
        let mut seen: Vec<HashSet<Vec<i64>>> = vec![HashSet::new(); query.fields.len()];
        for coord in coords {
            if coord.len() != dim_names.len() {
                let (expected, found) = (dim_names.len(), coord.len());
                return Err(QueryError::ArityMismatch { expected, found });
            }
            for (d, (&c, b)) in coord.iter().zip(bounds).enumerate() {
                if !b.contains(c) {
                    return Err(QueryError::CoordinateOutOfBounds {
                        coordinate: c,
                        dimension: d,
                    });
                }
            }
            let group_coord: Vec<i64> = group_dims.iter().map(|&d| coord[d]).collect();
            let off = result.offset(&group_coord);
            for (f, field) in query.fields.iter().enumerate() {
                let slot = &mut result.field_data_mut(&field.label)?[off];
                match &field.aggregate {
                    Aggregate::Id => *slot = 1,
                    Aggregate::Count(_) => {
                        let mut key = group_coord.clone();
                        key.extend(field_dims[f].iter().map(|&d| coord[d]));
                        if seen[f].insert(key) {
                            *slot += 1;
                        }
                    }
                    Aggregate::Max(_) => *slot = (*slot).max(coord[field_dims[f][0]]),
                    Aggregate::Min(_) => *slot = (*slot).min(coord[field_dims[f][0]]),
                }
            }
        }
        Ok(result)
    }

    pub type Counters = HashMap<(Vec<String>, Vec<i64>), i64>;

    pub fn apply(
        remap: &Remapping,
        params: &HashMap<String, i64>,
        counters: &mut Counters,
        source: &[i64],
    ) -> Result<Vec<i64>, RemapError> {
        let mut out = Vec::new();
        for d in &remap.dst {
            let mut lets: HashMap<String, i64> = HashMap::new();
            for (name, expr) in &d.lets {
                let v = eval(remap, params, counters, expr, source, &lets)?;
                lets.insert(name.clone(), v);
            }
            out.push(eval(remap, params, counters, &d.expr, source, &lets)?);
        }
        Ok(out)
    }

    fn eval(
        remap: &Remapping,
        params: &HashMap<String, i64>,
        counters: &mut Counters,
        expr: &IndexExpr,
        source: &[i64],
        lets: &HashMap<String, i64>,
    ) -> Result<i64, RemapError> {
        let var = |name: &String| -> Result<i64, RemapError> {
            let d = remap.src.iter().position(|s| s == name);
            d.map(|d| source[d])
                .ok_or_else(|| RemapError::UnboundVariable(name.clone()))
        };
        match expr {
            IndexExpr::Const(c) => Ok(*c),
            IndexExpr::Var(name) => var(name),
            IndexExpr::LetVar(name) => lets
                .get(name)
                .copied()
                .ok_or_else(|| RemapError::UnboundVariable(name.clone())),
            IndexExpr::Param(name) => params
                .get(name)
                .copied()
                .ok_or_else(|| RemapError::MissingParameter(name.clone())),
            IndexExpr::Counter(vars) => {
                let key = vars.iter().map(var).collect::<Result<Vec<_>, _>>()?;
                let slot = counters.entry((vars.clone(), key)).or_insert(0);
                *slot += 1;
                Ok(*slot - 1)
            }
            IndexExpr::Binary(op, l, r) => {
                let l = eval(remap, params, counters, l, source, lets)?;
                let r = eval(remap, params, counters, r, source, lets)?;
                match op {
                    BinOp::Add => Ok(l.wrapping_add(r)),
                    BinOp::Sub => Ok(l.wrapping_sub(r)),
                    BinOp::Mul => Ok(l.wrapping_mul(r)),
                    BinOp::Div | BinOp::Rem if r == 0 => Err(RemapError::DivisionByZero),
                    BinOp::Div => Ok(l / r),
                    BinOp::Rem => Ok(l % r),
                    BinOp::Shl | BinOp::Shr if !(0..64).contains(&r) => {
                        Err(RemapError::InvalidShift(r))
                    }
                    BinOp::Shl => Ok(l << r),
                    BinOp::Shr => Ok(l >> r),
                    BinOp::And => Ok(l & r),
                    BinOp::Or => Ok(l | r),
                    BinOp::Xor => Ok(l ^ r),
                }
            }
        }
    }
}

/// A random query space: one to three dimensions, some with negative lower
/// bounds, some 1 wide, some far wider than 16 × the nonzero count.
fn space(rng: &mut StdRng) -> (Vec<String>, Vec<DimBounds>) {
    let order = rng.gen_range(1..4);
    let names = ["a", "b", "c"][..order].iter().map(|n| n.to_string());
    let bounds = (0..order).map(|_| {
        let lower = rng.gen_range(-6i64..3);
        let extent = match rng.gen_range(0..6) {
            0 => 1,
            1 => rng.gen_range(700..3000),
            _ => rng.gen_range(2..12),
        };
        DimBounds::new(lower, lower + extent)
    });
    (names.collect(), bounds.collect())
}

/// A random query over `names`: zero to two group-by dimensions (kept to a
/// small dense result), one to three fields of every aggregate, and now and
/// then a name the space does not have.
fn query(rng: &mut StdRng, names: &[String], bounds: &[DimBounds]) -> AttrQuery {
    let name = |rng: &mut StdRng| {
        if rng.gen_range(0..40) == 0 {
            "z".to_string()
        } else {
            names[rng.gen_range(0..names.len())].clone()
        }
    };
    let mut group_by: Vec<String> = Vec::new();
    for _ in 0..rng.gen_range(0..3) {
        let g = name(rng);
        if !group_by.contains(&g) {
            group_by.push(g);
        }
    }
    let cells: usize = group_by
        .iter()
        .filter_map(|g| names.iter().position(|n| n == g))
        .map(|d| bounds[d].extent())
        .product();
    if cells > 100_000 {
        group_by.truncate(1);
    }
    let fields = (0..rng.gen_range(1..4)).map(|f| {
        let aggregate = match rng.gen_range(0..5) {
            0 => Aggregate::Id,
            1 => Aggregate::Min(name(rng)),
            2 => Aggregate::Max(name(rng)),
            3 => Aggregate::Count(vec![name(rng)]),
            _ => Aggregate::Count(vec![name(rng), name(rng)]),
        };
        QueryField {
            aggregate,
            label: format!("f{f}"),
        }
    });
    AttrQuery::new(group_by, fields.collect())
}

/// Random coordinates inside `bounds`, with duplicates, and now and then one
/// out of bounds or of the wrong arity.
fn coordinates(rng: &mut StdRng, bounds: &[DimBounds]) -> Vec<Vec<i64>> {
    let nnz = if rng.gen_range(0..8) == 0 {
        0
    } else {
        rng.gen_range(1..40)
    };
    let mut out: Vec<Vec<i64>> = Vec::with_capacity(nnz);
    while out.len() < nnz {
        if !out.is_empty() && rng.gen_range(0..6) == 0 {
            let dup = out[rng.gen_range(0..out.len())].clone();
            out.push(dup);
            continue;
        }
        out.push(
            bounds
                .iter()
                .map(|b| rng.gen_range(b.lower..b.upper))
                .collect(),
        );
    }
    if !out.is_empty() && rng.gen_range(0..10) == 0 {
        let (p, d) = (rng.gen_range(0..out.len()), rng.gen_range(0..bounds.len()));
        out[p][d] = if rng.gen_range(0..2) == 0 {
            bounds[d].upper
        } else {
            bounds[d].lower - 1
        };
    }
    if !out.is_empty() && rng.gen_range(0..10) == 0 {
        let p = rng.gen_range(0..out.len());
        if rng.gen_range(0..2) == 0 {
            out[p].pop();
        } else {
            out[p].push(0);
        }
    }
    out
}

/// A random destination expression over `src`, with `lets` in scope.
fn expr(rng: &mut StdRng, src: &[String], lets: &[String], depth: usize) -> IndexExpr {
    let var = |rng: &mut StdRng| src[rng.gen_range(0..src.len())].clone();
    match rng.gen_range(0..if depth == 0 { 6 } else { 9 }) {
        0 if rng.gen_range(0..30) == 0 => IndexExpr::Var("q".into()),
        0 | 1 => IndexExpr::Var(var(rng)),
        2 => IndexExpr::Const(rng.gen_range(-3..6)),
        3 if rng.gen_range(0..20) == 0 => IndexExpr::Param("N".into()),
        3 => IndexExpr::Param("M".into()),
        4 => {
            let vars = match rng.gen_range(0..5) {
                0 => Vec::new(),
                1 if rng.gen_range(0..10) == 0 => vec!["q".to_string()],
                1 | 2 => vec![var(rng)],
                _ => vec![src[0].clone(), src[src.len() - 1].clone()],
            };
            IndexExpr::Counter(vars)
        }
        5 if !lets.is_empty() => IndexExpr::LetVar(lets[rng.gen_range(0..lets.len())].clone()),
        5 if rng.gen_range(0..20) == 0 => IndexExpr::LetVar("w".into()),
        5 => IndexExpr::Var(var(rng)),
        _ => {
            let ops = [
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Div,
                BinOp::Rem,
                BinOp::Shl,
                BinOp::Shr,
                BinOp::And,
                BinOp::Or,
                BinOp::Xor,
            ];
            let op = ops[rng.gen_range(0..ops.len())];
            let lhs = expr(rng, src, lets, depth - 1);
            // Divisors never evaluate to -1 (`i64::MIN / -1` overflows in
            // both evaluators); shift amounts stray outside 0..64 now and
            // then.
            let rhs = match op {
                BinOp::Div | BinOp::Rem => match rng.gen_range(0..3) {
                    0 => IndexExpr::Const(rng.gen_range(0..5)),
                    1 => IndexExpr::Var(var(rng)),
                    _ => IndexExpr::Counter(vec![var(rng)]),
                },
                BinOp::Shl | BinOp::Shr => IndexExpr::Const(rng.gen_range(-1..66)),
                _ => expr(rng, src, lets, depth - 1),
            };
            IndexExpr::binary(op, lhs, rhs)
        }
    }
}

/// A random remapping of an order-2 or order-3 space: one to four
/// destinations, each with up to two lets.
fn remapping(rng: &mut StdRng) -> Remapping {
    let src: Vec<String> = ["i", "j", "k"][..rng.gen_range(2..4)]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let dst = (0..rng.gen_range(1..5)).map(|_| {
        let mut names: Vec<String> = Vec::new();
        let mut lets = Vec::new();
        for l in 0..rng.gen_range(0..3) {
            let depth = rng.gen_range(0..3);
            let e = expr(rng, &src, &names, depth);
            let name = format!("t{}", l % 2);
            names.push(name.clone());
            lets.push((name, e));
        }
        let depth = rng.gen_range(0..3);
        let expr = expr(rng, &src, &names, depth);
        DstIndex { lets, expr }
    });
    Remapping::new(src.clone(), dst.collect())
}

proptest! {
    #[test]
    fn queries_match_the_hash_set_reference(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (names, bounds) = space(&mut rng);
        let q = query(&mut rng, &names, &bounds);
        let coords = coordinates(&mut rng, &bounds);
        let expected = reference::evaluate(&q, &names, &bounds, &coords);
        let got = evaluate_on_coords(&q, &names, &bounds, coords.iter().map(Vec::as_slice));
        prop_assert_eq!(&got, &expected, "{}", q);
        if coords.iter().all(|c| c.len() == names.len()) {
            let rows: Vec<i64> = coords.concat();
            let got = evaluate_on_rows(&q, &names, &bounds, coords.len(), &rows);
            prop_assert_eq!(&got, &expected, "{}", q);
        }
    }

    #[test]
    fn remappings_match_the_hash_map_reference(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let remap = remapping(&mut rng);
        let dims: Vec<usize> = remap.src.iter().map(|_| rng.gen_range(1..5)).collect();
        let nnz = rng.gen_range(0..30);
        let coords: Vec<Vec<i64>> = (0..nnz)
            .map(|_| dims.iter().map(|&n| rng.gen_range(0..n) as i64).collect())
            .collect();
        let params = HashMap::from([("M".to_string(), rng.gen_range(-2..5))]);
        let mut ctx = EvalContext::new(&remap).with_param("M", params["M"]);

        let mut counters = reference::Counters::new();
        let expected: Result<Vec<i64>, RemapError> = coords
            .iter()
            .map(|c| reference::apply(&remap, &params, &mut counters, c))
            .collect::<Result<Vec<_>, _>>()
            .map(|rows| rows.concat());
        let cols: Vec<Vec<usize>> = (0..dims.len())
            .map(|d| coords.iter().map(|c| c[d] as usize).collect())
            .collect();
        let cols: Vec<&[usize]> = cols.iter().map(Vec::as_slice).collect();
        prop_assert_eq!(ctx.apply_columns(&cols), expected.clone(), "{}", remap);

        // One coordinate at a time, counters carrying over, up to the first
        // error (after which the two evaluators' counter states may differ).
        let mut counters = reference::Counters::new();
        for c in &coords {
            let expected = reference::apply(&remap, &params, &mut counters, c);
            prop_assert_eq!(ctx.apply(c), expected.clone(), "{}", remap);
            if expected.is_err() {
                break;
            }
        }
    }
}

#[test]
fn evaluators_report_unknown_names_before_bad_coordinates() {
    let names = vec!["i".to_string(), "j".to_string()];
    let bounds = vec![DimBounds::from_extent(4), DimBounds::new(-2, 3)];
    let unknown: AttrQuery = "select [k] -> id() as x".parse().unwrap();
    let bad = [vec![9i64, 0], vec![0]];
    let err = evaluate_on_coords(&unknown, &names, &bounds, bad.iter().map(Vec::as_slice));
    assert_eq!(err, Err(QueryError::UnknownIndexVariable("k".into())));
    // An out-of-bounds coordinate before a short one is reported first.
    let q: AttrQuery = "select [i] -> count(j) as n".parse().unwrap();
    let err = evaluate_on_coords(&q, &names, &bounds, bad.iter().map(Vec::as_slice));
    assert_eq!(
        err,
        Err(QueryError::CoordinateOutOfBounds {
            coordinate: 9,
            dimension: 0
        })
    );
    let err = evaluate_on_rows(&q, &names, &bounds, 1, &[0, -3]);
    assert_eq!(
        err,
        Err(QueryError::CoordinateOutOfBounds {
            coordinate: -3,
            dimension: 1
        })
    );
}

/// The driver corpus: deterministic inputs and specs whose
/// `convert_with_spec` results (output or error, as `Debug` text) are
/// digested and compared with pinned values.
mod corpus {
    use taco_conversion_repro::conv::generic::convert_with_spec;
    use taco_conversion_repro::conv::prelude::LevelKind;
    use taco_conversion_repro::conv::{AnyTensor, Format, FormatSpec};
    use taco_conversion_repro::formats::{CooMatrix, CooTensor, CsrMatrix};
    use taco_conversion_repro::remap::Remapping;
    use taco_conversion_repro::tensor::{Shape, SparseTriples};
    use taco_conversion_repro::workloads::generators::{blocked, irregular, tensor3_uniform};

    /// FNV-1a over the `Debug` text of each result, in order.
    pub struct Digest(pub u64);

    impl Digest {
        pub fn new() -> Self {
            Digest(0xcbf2_9ce4_8422_2325)
        }

        pub fn add(&mut self, src: &AnyTensor, spec: &FormatSpec) {
            let text = format!("{:?}", convert_with_spec(src, spec));
            for b in text.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    /// A small xorshift generator, so the corpus does not depend on any
    /// RNG crate's stream.
    pub struct Xorshift(u64);

    impl Xorshift {
        pub fn below(&mut self, bound: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % bound as u64) as usize
        }
    }

    fn shuffled(t: &SparseTriples, seed: u64) -> AnyTensor {
        let mut coo = CooMatrix::from_triples(t);
        let mut rng = Xorshift(seed);
        coo.shuffle_with(|bound| rng.below(bound));
        AnyTensor::Coo(coo)
    }

    fn spec(text: &str) -> FormatSpec {
        let format: Format = text.parse().expect("spec text parses");
        format.spec().expect("a spec").clone()
    }

    /// The four builder specs of the `custom_format` workload on shuffled
    /// irregular and blocked inputs.
    pub fn custom_format() -> u64 {
        let mut digest = Digest::new();
        let irr = irregular(300, 300, 2000, 64, 11).expect("irregular input");
        let blk = blocked(160, 160, 4, 4, 2000, 12).expect("blocked input");
        let cases = [
            (&irr, "MYCSR:(i,j)->(i,j):i,j:dense,compressed"),
            (&irr, "DCSR:(i,j)->(i,j):i,j:compressed,compressed"),
            (&irr, "MYCSC:(i,j)->(j,i):j,i:dense,compressed"),
            (
                &blk,
                "MYBCSR:(i,j)->(i/4,j/4,i%4,j%4):bi,bj,ii,jj:dense,compressed,dense,dense",
            ),
        ];
        for (t, text) in cases {
            digest.add(&shuffled(t, 5), &spec(text));
            digest.add(&AnyTensor::Csr(CsrMatrix::from_triples(t)), &spec(text));
        }
        digest.0
    }

    /// Every stock order-2 spec, ELL's `#i` counter and skyline among them,
    /// on a shuffled irregular input, its lower triangle, and an empty one.
    pub fn stock() -> u64 {
        let mut digest = Digest::new();
        let irr = irregular(120, 120, 700, 20, 13).expect("irregular input");
        let mut lower = SparseTriples::new(irr.shape().clone());
        for t in irr.iter().filter(|t| t.coord[1] <= t.coord[0]) {
            lower.push(t.coord.clone(), t.value).expect("in bounds");
        }
        let empty = SparseTriples::new(Shape::matrix(7, 5));
        let formats = [
            Format::coo(),
            Format::csr(),
            Format::csc(),
            Format::dia(),
            Format::ell(),
            Format::bcsr(2, 3),
            Format::skyline(),
            Format::jad(),
        ];
        for format in formats {
            let spec = format.spec().expect("stock spec").clone();
            for t in [&irr, &lower, &empty] {
                digest.add(&shuffled(t, 7), &spec);
            }
        }
        digest.0
    }

    /// The `spec_fuzz` space: every mode permutation crossed with every
    /// level composition, on a few duplicate-free random inputs.
    pub fn fuzz() -> u64 {
        const KINDS: [LevelKind; 8] = [
            LevelKind::Dense,
            LevelKind::Compressed,
            LevelKind::CompressedNonUnique,
            LevelKind::Singleton,
            LevelKind::Sliced,
            LevelKind::Squeezed,
            LevelKind::Banded,
            LevelKind::Hashed,
        ];
        let mut digest = Digest::new();
        let mut rng = Xorshift(0x5eed);
        let mut random = |dims: Vec<usize>, nnz: usize| {
            let mut t = SparseTriples::new(Shape::new(dims.clone()));
            for k in 0..nnz {
                let coord: Vec<i64> = dims.iter().map(|&n| rng.below(n) as i64).collect();
                if t.get(&coord) == 0.0 {
                    t.push(coord, 1.0 + k as f64).expect("in bounds");
                }
            }
            t
        };
        let matrices = [random(vec![9, 7], 30), random(vec![4, 11], 12)];
        let tensor = random(vec![5, 4, 6], 40);
        let tensor = CooTensor::from_triples(&tensor);
        let names = ["i", "j", "k"];
        for order in [[0, 1], [1, 0]] {
            for code in 0..KINDS.len().pow(2) {
                let kinds = vec![KINDS[code % 8], KINDS[code / 8]];
                let dims = order.iter().map(|&m| names[m]).collect();
                let spec = FormatSpec::new("F2", Remapping::mode_permutation(&order), dims, kinds);
                for m in &matrices {
                    digest.add(&AnyTensor::Coo(CooMatrix::from_triples(m)), &spec);
                }
            }
        }
        let orders = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for order in orders {
            for code in 0..KINDS.len().pow(3) {
                let kinds = vec![KINDS[code % 8], KINDS[code / 8 % 8], KINDS[code / 64]];
                let dims = order.iter().map(|&m| names[m]).collect();
                let spec = FormatSpec::new("F3", Remapping::mode_permutation(&order), dims, kinds);
                digest.add(&AnyTensor::Coo3(tensor.clone()), &spec);
            }
        }
        let dense = tensor3_uniform([3, 3, 2], 18, 17).expect("tensor input");
        let spec = Format::csf().spec().expect("stock spec").clone();
        digest.add(&AnyTensor::Coo3(CooTensor::from_triples(&dense)), &spec);
        digest.0
    }
}

/// The digests are those of the row-at-a-time driver (triples, `HashSet`
/// queries, `HashMap` dedup) on the same corpus: every output and every
/// error is byte-identical.
#[test]
fn the_driver_reproduces_the_row_at_a_time_outputs() {
    assert_eq!(
        corpus::custom_format(),
        1250872844090784053,
        "custom_format specs"
    );
    assert_eq!(corpus::stock(), 11366849937449333983, "stock specs");
    assert_eq!(corpus::fuzz(), 13992089449280215315, "spec_fuzz corpus");
}

/// A spec that keeps the source order reserves one slot per distinct
/// coordinate, so a duplicate would land in the next row's slots or
/// overwrite a value while `nnz` still counted it: the driver rejects it
/// with the sorting path's typed error instead.
#[test]
fn duplicates_are_rejected_by_specs_that_do_not_sort() {
    let t = SparseTriples::from_matrix_entries(
        3,
        3,
        vec![(0, 1, 1.0), (2, 2, 5.0), (0, 1, 2.0), (1, 0, 3.0)],
    )
    .unwrap();
    let src = AnyTensor::Coo(CooMatrix::from_triples(&t));
    let service = ConversionService::new(ServiceConfig::default());
    for text in [
        "MYCSR:(i,j)->(i,j):i,j:dense,compressed",
        "MYCSC:(i,j)->(j,i):j,i:dense,compressed",
        "MYBCSR:(i,j)->(i/4,j/4,i%4,j%4):bi,bj,ii,jj:dense,compressed,dense,dense",
    ] {
        let format: Format = text.parse().unwrap();
        let direct = convert(&src, &format);
        assert!(
            matches!(direct, Err(ConvertError::Unsupported(ref m)) if m.contains("duplicate-free")),
            "{text}: {direct:?}"
        );
        let served = service.convert(&src, &format);
        assert!(
            matches!(served, Err(ConvertError::Unsupported(ref m)) if m.contains("duplicate-free")),
            "{text}: {served:?}"
        );
    }
}
