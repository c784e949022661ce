//! Attribute query evaluation.
//!
//! [`QueryResult`] is the dense result representation the assembly abstraction
//! consumes (Section 6 passes `Qk` / `qk` arguments to level functions).
//! [`evaluate_on_columns`] answers a query over one coordinate column per
//! dimension with counting passes and no hashing; [`evaluate_on_rows`] and
//! [`evaluate_on_coords`] are the same evaluator over a row-major buffer and
//! over a stream of coordinate slices. The conversion engine
//! computes the same results through optimised paths (e.g. `pos`
//! differencing for CSR sources) and is tested against this evaluator.

use sparse_tensor::stats::{distinct_pairs, Dense};
use sparse_tensor::DimBounds;

use crate::query::ast::{Aggregate, AttrQuery};
use crate::query::error::QueryError;

/// Sentinel initial value for `max` aggregations (no nonzero seen yet).
pub const MAX_EMPTY: i64 = i64::MIN;
/// Sentinel initial value for `min` aggregations (no nonzero seen yet).
pub const MIN_EMPTY: i64 = i64::MAX;

/// The result of an attribute query: for every combination of group-by
/// coordinates, one integer per aggregation field.
///
/// Results are stored densely over the group-by coordinate space (row-major),
/// which is how generated conversion code consumes them (`count` histograms,
/// `id` bit sets, and so on). Group-by dimensions may have negative lower
/// bounds (e.g. DIA diagonal offsets).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    group_bounds: Vec<DimBounds>,
    labels: Vec<String>,
    /// One dense array per field, each of length `group_size()`.
    data: Vec<Vec<i64>>,
}

impl QueryResult {
    /// Creates a result table with every field initialised according to its
    /// aggregation (`0` for `count`/`id`, [`MAX_EMPTY`] for `max`,
    /// [`MIN_EMPTY`] for `min`).
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::GroupSpaceOverflow`] when the group-by space
    /// has more points than `usize::MAX`, or a field's table cannot be
    /// allocated.
    pub fn new(query: &AttrQuery, group_bounds: Vec<DimBounds>) -> Result<Self, QueryError> {
        let size = group_bounds
            .iter()
            .try_fold(1usize, |n, b| n.checked_mul(b.extent()))
            .ok_or(QueryError::GroupSpaceOverflow)?;
        let mut labels = Vec::with_capacity(query.fields.len());
        let mut data = Vec::with_capacity(query.fields.len());
        for field in &query.fields {
            labels.push(field.label.clone());
            let init = match field.aggregate {
                Aggregate::Count(_) | Aggregate::Id => 0,
                Aggregate::Max(_) => MAX_EMPTY,
                Aggregate::Min(_) => MIN_EMPTY,
            };
            let mut table = Vec::new();
            let overflow = |_| QueryError::GroupSpaceOverflow;
            table.try_reserve_exact(size).map_err(overflow)?;
            table.resize(size, init);
            data.push(table);
        }
        Ok(QueryResult {
            group_bounds,
            labels,
            data,
        })
    }

    /// The bounds of the group-by coordinate space.
    pub fn group_bounds(&self) -> &[DimBounds] {
        &self.group_bounds
    }

    /// The field labels, in query order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Number of group-by combinations (1 for an empty group-by list).
    pub fn group_size(&self) -> usize {
        self.group_bounds.iter().map(DimBounds::extent).product()
    }

    /// Row-major offset of a group coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate arity is wrong or any coordinate is outside
    /// its bounds.
    pub fn offset(&self, group_coord: &[i64]) -> usize {
        assert_eq!(
            group_coord.len(),
            self.group_bounds.len(),
            "group coordinate arity mismatch"
        );
        let mut off = 0usize;
        for (d, (&c, b)) in group_coord.iter().zip(&self.group_bounds).enumerate() {
            assert!(
                b.contains(c),
                "group coordinate {c} out of bounds {b} in dimension {d}"
            );
            off = off * b.extent() + (c - b.lower) as usize;
        }
        off
    }

    fn field_index(&self, label: &str) -> Result<usize, QueryError> {
        self.labels
            .iter()
            .position(|l| l == label)
            .ok_or_else(|| QueryError::UnknownField(label.to_string()))
    }

    /// Reads a field value for a group coordinate.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::UnknownField`] for a label the query did not
    /// define.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-bounds coordinate.
    pub fn get(&self, group_coord: &[i64], label: &str) -> Result<i64, QueryError> {
        Ok(self.data[self.field_index(label)?][self.offset(group_coord)])
    }

    /// Writes a field value for a group coordinate.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::UnknownField`] for a label the query did not
    /// define.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-bounds coordinate.
    pub fn set(&mut self, group_coord: &[i64], label: &str, value: i64) -> Result<(), QueryError> {
        let field = self.field_index(label)?;
        let off = self.offset(group_coord);
        self.data[field][off] = value;
        Ok(())
    }

    /// The dense array backing one field.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::UnknownField`] for a label the query did not
    /// define.
    pub fn field_data(&self, label: &str) -> Result<&[i64], QueryError> {
        Ok(&self.data[self.field_index(label)?])
    }

    /// Mutable access to the dense array backing one field.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::UnknownField`] for a label the query did not
    /// define.
    pub fn field_data_mut(&mut self, label: &str) -> Result<&mut [i64], QueryError> {
        let field = self.field_index(label)?;
        Ok(&mut self.data[field])
    }

    /// Maximum value of a field across all groups, treating empty-group
    /// sentinels as absent. Returns `Ok(None)` when every group is empty.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::UnknownField`] for a label the query did not
    /// define.
    pub fn field_max(&self, label: &str) -> Result<Option<i64>, QueryError> {
        Ok(self
            .field_data(label)?
            .iter()
            .copied()
            .filter(|&v| v != MAX_EMPTY && v != MIN_EMPTY)
            .max())
    }

    /// Sum of a field across all groups (used for totals such as `nnz`).
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::UnknownField`] for a label the query did not
    /// define.
    pub fn field_sum(&self, label: &str) -> Result<i64, QueryError> {
        Ok(self
            .field_data(label)?
            .iter()
            .copied()
            .filter(|&v| v != MAX_EMPTY && v != MIN_EMPTY)
            .sum())
    }
}

/// Evaluates an attribute query over a stream of coordinates in the
/// (remapped) coordinate space the query ranges over: collects them into one
/// row-major buffer for [`evaluate_on_rows`].
///
/// `dim_names` names each dimension of that space and `bounds` gives its
/// coordinate bounds; the query's variables must refer to those names.
///
/// # Errors
///
/// Returns an error when the query mentions unknown dimensions, a coordinate
/// has the wrong arity, a coordinate falls outside the declared bounds, or
/// the group-by space is too large for a result table. The first error in
/// coordinate order wins.
pub fn evaluate_on_coords<'a>(
    query: &AttrQuery,
    dim_names: &[String],
    bounds: &[DimBounds],
    coords: impl Iterator<Item = &'a [i64]>,
) -> Result<QueryResult, QueryError> {
    let (mut rows, mut nnz) = (Vec::new(), 0);
    for coord in coords {
        if coord.len() != dim_names.len() {
            // An unknown name or an earlier out-of-bounds coordinate wins.
            evaluate_on_rows(query, dim_names, bounds, nnz, &rows)?;
            let (expected, found) = (dim_names.len(), coord.len());
            return Err(QueryError::ArityMismatch { expected, found });
        }
        rows.extend_from_slice(coord);
        nnz += 1;
    }
    evaluate_on_rows(query, dim_names, bounds, nnz, &rows)
}

/// Evaluates an attribute query over `nnz` coordinates stored row-major in
/// `rows` (coordinate `p` is `rows[p * order..][..order]`, one entry per
/// dimension), as [`evaluate_on_columns`] does over their columns.
///
/// # Errors
///
/// As [`evaluate_on_coords`], but every coordinate has the right arity.
///
/// # Panics
///
/// Panics unless there is one bound per dimension name and `rows` holds
/// `nnz` coordinates.
pub fn evaluate_on_rows(
    query: &AttrQuery,
    dim_names: &[String],
    bounds: &[DimBounds],
    nnz: usize,
    rows: &[i64],
) -> Result<QueryResult, QueryError> {
    let order = bounds.len();
    assert_eq!(rows.len(), nnz * order, "one row per coordinate");
    let cols: Vec<Vec<i64>> = (0..order)
        .map(|d| rows.iter().skip(d).step_by(order).copied().collect())
        .collect();
    evaluate_on_columns(query, dim_names, bounds, nnz, &cols)
}

/// Evaluates an attribute query over `nnz` coordinates stored as one column
/// per dimension (`cols[d][p]` is coordinate `p`'s entry in dimension `d`),
/// in counting passes: group offsets are built one column at a time,
/// `count` marks the tuples `number_tuples` numbers in a bitmap, and `id`,
/// `min` and `max` update the result arrays directly.
///
/// # Errors
///
/// As [`evaluate_on_coords`], but every coordinate has the right arity.
///
/// # Panics
///
/// Panics unless there is one bound and one `nnz`-long column per
/// dimension name.
pub fn evaluate_on_columns(
    query: &AttrQuery,
    dim_names: &[String],
    bounds: &[DimBounds],
    nnz: usize,
    cols: &[Vec<i64>],
) -> Result<QueryResult, QueryError> {
    assert_eq!(dim_names.len(), bounds.len(), "one bound per dimension");
    assert!(cols.len() == bounds.len() && cols.iter().all(|c| c.len() == nnz));
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
    let field_dims: Vec<Vec<usize>> = query
        .fields
        .iter()
        .map(|f| f.aggregate.vars().into_iter().map(dim_of).collect())
        .collect::<Result<_, _>>()?;
    for p in 0..nnz {
        for (dimension, (col, b)) in cols.iter().zip(bounds).enumerate() {
            if !b.contains(col[p]) {
                let coordinate = col[p];
                return Err(QueryError::CoordinateOutOfBounds {
                    coordinate,
                    dimension,
                });
            }
        }
    }
    let group_bounds: Vec<DimBounds> = group_dims.iter().map(|&d| bounds[d]).collect();
    let mut result = QueryResult::new(query, group_bounds)?;
    let groups = result.group_size();

    let mut group = vec![0usize; nnz];
    for &d in &group_dims {
        let b = bounds[d];
        let at = group.iter_mut().zip(&cols[d]);
        at.for_each(|(g, &c)| *g = *g * b.extent() + (c - b.lower) as usize);
    }
    for ((field, dims), data) in query.fields.iter().zip(&field_dims).zip(&mut result.data) {
        let cells = group.iter().copied();
        match &field.aggregate {
            Aggregate::Id => cells.for_each(|g| data[g] = 1),
            Aggregate::Max(_) => cells
                .zip(&cols[dims[0]])
                .for_each(|(g, &c)| data[g] = data[g].max(c)),
            Aggregate::Min(_) => cells
                .zip(&cols[dims[0]])
                .for_each(|(g, &c)| data[g] = data[g].min(c)),
            Aggregate::Count(_) => {
                // Count each distinct (group, counted...) tuple once, at its
                // first nonzero.
                let counted: Vec<_> = dims
                    .iter()
                    .map(|&d| (&cols[d][..], bounds[d].lower, bounds[d].extent()))
                    .collect();
                let (tuples, space) = number_tuples(group.clone(), groups, &counted, 64);
                let mut seen = vec![0u64; space.div_ceil(64)];
                for (g, t) in cells.zip(tuples) {
                    let (word, bit) = (&mut seen[t / 64], 1 << (t % 64));
                    data[g] += i64::from(*word & bit == 0);
                    *word |= bit;
                }
            }
        }
    }
    Ok(result)
}

/// Numbers the tuples `(key[p], cols[0][p], ...)`, where `key` lies below
/// `extent` and each column, given as `(coordinates, lower, extent)`, in
/// its range: equal tuples get equal numbers, below the returned bound. A
/// number is the tuple's offset in the tuple space while that space has at
/// most `per` points per tuple, else the one [`distinct_pairs`] gives it.
pub(crate) fn number_tuples(
    mut key: Vec<usize>,
    extent: usize,
    cols: &[(&[i64], i64, usize)],
    per: usize,
) -> (Vec<usize>, usize) {
    let space = cols.iter().try_fold(extent, |s, c| s.checked_mul(c.2));
    if let Some(space) = space.filter(|s| s / per <= key.len()) {
        for &(col, lower, extent) in cols {
            let at = key.iter_mut().zip(col);
            at.for_each(|(t, &c)| *t = *t * extent + c.abs_diff(lower) as usize);
        }
        return (key, space);
    }
    let mut ids = Dense::new(&key, extent);
    for &(col, lower, extent) in cols {
        let val: Vec<usize> = col.iter().map(|&c| c.abs_diff(lower) as usize).collect();
        ids = distinct_pairs(&ids, &Dense::new(&val, extent)).0;
    }
    (ids.idx.into_owned(), ids.extent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::parse_query;
    use sparse_tensor::example::figure1_matrix;

    fn matrix_coords() -> Vec<Vec<i64>> {
        figure1_matrix().iter().map(|t| t.coord.clone()).collect()
    }

    fn names() -> Vec<String> {
        vec!["i".into(), "j".into()]
    }

    fn bounds() -> Vec<DimBounds> {
        vec![DimBounds::from_extent(4), DimBounds::from_extent(6)]
    }

    #[test]
    fn figure10_count_query() {
        let query = parse_query("select [i] -> count(j) as nir").unwrap();
        let coords = matrix_coords();
        let result = evaluate_on_coords(
            &query,
            &names(),
            &bounds(),
            coords.iter().map(|c| c.as_slice()),
        )
        .unwrap();
        // Figure 10 (left): nir = [2, 2, 2, 3].
        assert_eq!(result.field_data("nir").unwrap(), &[2, 2, 2, 3]);
        assert_eq!(result.field_sum("nir").unwrap(), 9);
        assert_eq!(result.field_max("nir").unwrap(), Some(3));
    }

    #[test]
    fn figure10_min_max_query() {
        let query = parse_query("select [i] -> min(j) as minir, max(j) as maxir").unwrap();
        let coords = matrix_coords();
        let result = evaluate_on_coords(
            &query,
            &names(),
            &bounds(),
            coords.iter().map(|c| c.as_slice()),
        )
        .unwrap();
        // Figure 10 (middle).
        assert_eq!(result.field_data("minir").unwrap(), &[0, 1, 0, 1]);
        assert_eq!(result.field_data("maxir").unwrap(), &[1, 2, 2, 4]);
    }

    #[test]
    fn figure10_id_query() {
        let query = parse_query("select [j] -> id() as ne").unwrap();
        let coords = matrix_coords();
        let result = evaluate_on_coords(
            &query,
            &names(),
            &bounds(),
            coords.iter().map(|c| c.as_slice()),
        )
        .unwrap();
        // Figure 10 (right): R[4].ne == 1 and R[5].ne == 0.
        assert_eq!(result.field_data("ne").unwrap(), &[1, 1, 1, 1, 1, 0]);
    }

    #[test]
    fn diagonal_queries_over_remapped_space() {
        // Remap (i,j) -> (j-i, i, j) by hand and query the offset dimension.
        let remapped: Vec<Vec<i64>> = matrix_coords()
            .iter()
            .map(|c| vec![c[1] - c[0], c[0], c[1]])
            .collect();
        let names = vec!["k".to_string(), "i".to_string(), "j".to_string()];
        let bounds = vec![
            DimBounds::new(-3, 6),
            DimBounds::from_extent(4),
            DimBounds::from_extent(6),
        ];
        let nz = parse_query("select [k] -> id() as nz").unwrap();
        let result =
            evaluate_on_coords(&nz, &names, &bounds, remapped.iter().map(|c| c.as_slice()))
                .unwrap();
        assert_eq!(
            result.field_sum("nz").unwrap(),
            3,
            "three nonzero diagonals"
        );
        assert_eq!(result.get(&[-2], "nz").unwrap(), 1);
        assert_eq!(result.get(&[0], "nz").unwrap(), 1);
        assert_eq!(result.get(&[1], "nz").unwrap(), 1);
        assert_eq!(result.get(&[2], "nz").unwrap(), 0);

        // Bandwidth query: select [] -> min(k) as lb, max(k) as ub.
        let bw = parse_query("select [] -> min(k) as lb, max(k) as ub").unwrap();
        let result =
            evaluate_on_coords(&bw, &names, &bounds, remapped.iter().map(|c| c.as_slice()))
                .unwrap();
        assert_eq!(result.get(&[], "lb").unwrap(), -2);
        assert_eq!(result.get(&[], "ub").unwrap(), 1);
    }

    #[test]
    fn count_is_distinct_over_subtensors() {
        // Two nonzeros in the same (i, j) position count once; the count of
        // nonzero rows per matrix uses count(i) at an empty group-by.
        let coords = [vec![0i64, 1], vec![0, 1], vec![2, 3]];
        let query = parse_query("select [] -> count(i) as nrows").unwrap();
        let result = evaluate_on_coords(
            &query,
            &names(),
            &bounds(),
            coords.iter().map(|c| c.as_slice()),
        )
        .unwrap();
        assert_eq!(result.get(&[], "nrows").unwrap(), 2);
    }

    #[test]
    fn empty_input_keeps_initial_values() {
        let query = parse_query("select [i] -> max(j) as m, count(j) as c").unwrap();
        let result = evaluate_on_coords(&query, &names(), &bounds(), std::iter::empty()).unwrap();
        assert_eq!(result.field_data("c").unwrap(), &[0, 0, 0, 0]);
        assert!(result
            .field_data("m")
            .unwrap()
            .iter()
            .all(|&v| v == MAX_EMPTY));
        assert_eq!(result.field_max("m").unwrap(), None);
    }

    #[test]
    fn errors_on_bad_inputs() {
        let query = parse_query("select [z] -> id() as x").unwrap();
        assert!(matches!(
            evaluate_on_coords(&query, &names(), &bounds(), std::iter::empty()),
            Err(QueryError::UnknownIndexVariable(_))
        ));
        let query = parse_query("select [i] -> id() as x").unwrap();
        let bad = [vec![0i64]];
        assert!(matches!(
            evaluate_on_coords(
                &query,
                &names(),
                &bounds(),
                bad.iter().map(|c| c.as_slice())
            ),
            Err(QueryError::ArityMismatch { .. })
        ));
        let oob = [vec![9i64, 0]];
        assert!(matches!(
            evaluate_on_coords(
                &query,
                &names(),
                &bounds(),
                oob.iter().map(|c| c.as_slice())
            ),
            Err(QueryError::CoordinateOutOfBounds { .. })
        ));
    }

    #[test]
    fn result_accessors() {
        let query = parse_query("select [i] -> count(j) as nir").unwrap();
        let mut result = QueryResult::new(&query, vec![DimBounds::from_extent(3)]).unwrap();
        assert_eq!(result.group_size(), 3);
        assert_eq!(result.labels(), &["nir".to_string()]);
        result.set(&[1], "nir", 7).unwrap();
        assert_eq!(result.get(&[1], "nir").unwrap(), 7);
        result.field_data_mut("nir").unwrap()[2] = 9;
        assert_eq!(result.get(&[2], "nir").unwrap(), 9);
        assert_eq!(result.group_bounds(), &[DimBounds::from_extent(3)]);
    }

    #[test]
    fn unknown_field_is_an_error_not_a_panic() {
        let query = parse_query("select [i] -> count(j) as nir").unwrap();
        let mut result = QueryResult::new(&query, vec![DimBounds::from_extent(3)]).unwrap();
        let expected = QueryError::UnknownField("bogus".to_string());
        assert_eq!(result.get(&[0], "bogus"), Err(expected.clone()));
        assert_eq!(result.set(&[0], "bogus", 1), Err(expected.clone()));
        assert_eq!(result.field_data("bogus"), Err(expected.clone()));
        assert!(result.field_data_mut("bogus").is_err());
        assert_eq!(result.field_max("bogus"), Err(expected.clone()));
        assert_eq!(result.field_sum("bogus"), Err(expected));
    }
}
