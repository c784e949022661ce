//! Attribute query evaluation.
//!
//! [`QueryResult`] is the dense result representation the assembly abstraction
//! consumes (Section 6 passes `Qk` / `qk` arguments to level functions), and
//! [`evaluate_on_coords`] is the reference evaluator: it aggregates directly
//! over a stream of (remapped) coordinates. The conversion engine in
//! The conversion engine computes the same results through optimised paths (e.g. `pos`
//! differencing for CSR sources) and is tested against this evaluator.

use std::collections::HashSet;

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
    pub fn new(query: &AttrQuery, group_bounds: Vec<DimBounds>) -> Self {
        let size: usize = group_bounds.iter().map(DimBounds::extent).product();
        let mut labels = Vec::with_capacity(query.fields.len());
        let mut data = Vec::with_capacity(query.fields.len());
        for field in &query.fields {
            labels.push(field.label.clone());
            let init = match field.aggregate {
                Aggregate::Count(_) | Aggregate::Id => 0,
                Aggregate::Max(_) => MAX_EMPTY,
                Aggregate::Min(_) => MIN_EMPTY,
            };
            data.push(vec![init; size]);
        }
        QueryResult {
            group_bounds,
            labels,
            data,
        }
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
/// (remapped) coordinate space the query ranges over.
///
/// `dim_names` names each dimension of that space and `bounds` gives its
/// coordinate bounds; the query's variables must refer to those names.
///
/// # Errors
///
/// Returns an error when the query mentions unknown dimensions, a coordinate
/// has the wrong arity, or a coordinate falls outside the declared bounds.
pub fn evaluate_on_coords<'a>(
    query: &AttrQuery,
    dim_names: &[String],
    bounds: &[DimBounds],
    coords: impl Iterator<Item = &'a [i64]>,
) -> Result<QueryResult, QueryError> {
    assert_eq!(dim_names.len(), bounds.len(), "one bound per dimension");
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

    // Per-field auxiliary state for `count` distinctness.
    let mut field_dims: Vec<Vec<usize>> = Vec::with_capacity(query.fields.len());
    for field in &query.fields {
        let dims = field
            .aggregate
            .vars()
            .iter()
            .map(|v| dim_of(v))
            .collect::<Result<Vec<_>, _>>()?;
        field_dims.push(dims);
    }
    let mut seen: Vec<HashSet<Vec<i64>>> = vec![HashSet::new(); query.fields.len()];

    for coord in coords {
        if coord.len() != dim_names.len() {
            return Err(QueryError::ArityMismatch {
                expected: dim_names.len(),
                found: coord.len(),
            });
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
        let group_off = result.offset(&group_coord);
        for (f, field) in query.fields.iter().enumerate() {
            match &field.aggregate {
                Aggregate::Id => {
                    result.data[f][group_off] = 1;
                }
                Aggregate::Count(_) => {
                    // Count distinct subtensors: key on the group coordinate
                    // plus the counted coordinates.
                    let mut key = group_coord.clone();
                    key.extend(field_dims[f].iter().map(|&d| coord[d]));
                    if seen[f].insert(key) {
                        result.data[f][group_off] += 1;
                    }
                }
                Aggregate::Max(_) => {
                    let c = coord[field_dims[f][0]];
                    let slot = &mut result.data[f][group_off];
                    *slot = (*slot).max(c);
                }
                Aggregate::Min(_) => {
                    let c = coord[field_dims[f][0]];
                    let slot = &mut result.data[f][group_off];
                    *slot = (*slot).min(c);
                }
            }
        }
    }
    Ok(result)
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
        let mut result = QueryResult::new(&query, vec![DimBounds::from_extent(3)]);
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
        let mut result = QueryResult::new(&query, vec![DimBounds::from_extent(3)]);
        let expected = QueryError::UnknownField("bogus".to_string());
        assert_eq!(result.get(&[0], "bogus"), Err(expected.clone()));
        assert_eq!(result.set(&[0], "bogus", 1), Err(expected.clone()));
        assert_eq!(result.field_data("bogus"), Err(expected.clone()));
        assert!(result.field_data_mut("bogus").is_err());
        assert_eq!(result.field_max("bogus"), Err(expected.clone()));
        assert_eq!(result.field_sum("bogus"), Err(expected));
    }
}
