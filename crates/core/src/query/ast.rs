//! Abstract syntax of the attribute query language.

use std::fmt;
use std::str::FromStr;

use crate::query::error::QueryError;

/// An aggregation function over the coordinates of a subtensor's nonzeros
/// (Section 5.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Aggregate {
    /// `count(i_{m+1}, ..., i_l)`: the number of distinct nonzero subtensors
    /// identified by the listed coordinates.
    Count(Vec<String>),
    /// `max(i_{m+1})`: the largest coordinate along the listed dimension for
    /// which the subtensor is nonzero.
    Max(String),
    /// `min(i_{m+1})`: the smallest such coordinate.
    Min(String),
    /// `id()`: 1 if the subtensor contains any nonzero, 0 otherwise.
    Id,
}

impl Aggregate {
    /// Index variables the aggregation reads.
    pub fn vars(&self) -> Vec<&str> {
        match self {
            Aggregate::Count(vs) => vs.iter().map(String::as_str).collect(),
            Aggregate::Max(v) | Aggregate::Min(v) => vec![v.as_str()],
            Aggregate::Id => Vec::new(),
        }
    }
}

impl fmt::Display for Aggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Aggregate::Count(vs) => write!(f, "count({})", vs.join(",")),
            Aggregate::Max(v) => write!(f, "max({v})"),
            Aggregate::Min(v) => write!(f, "min({v})"),
            Aggregate::Id => write!(f, "id()"),
        }
    }
}

/// One aggregation together with its result label (`<aggr> as label`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryField {
    /// The aggregation to compute.
    pub aggregate: Aggregate,
    /// The label the result is stored under.
    pub label: String,
}

impl fmt::Display for QueryField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} as {}", self.aggregate, self.label)
    }
}

/// A complete attribute query:
/// `select [i1,...,im] -> <aggr1> as l1, ..., <aggrn> as ln`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AttrQuery {
    /// The grouping coordinates `i1, ..., im` (possibly empty).
    pub group_by: Vec<String>,
    /// The aggregations to compute per group.
    pub fields: Vec<QueryField>,
}

impl AttrQuery {
    /// Creates a query from parts.
    ///
    /// # Panics
    ///
    /// Panics if `fields` is empty.
    pub fn new(group_by: Vec<String>, fields: Vec<QueryField>) -> Self {
        assert!(
            !fields.is_empty(),
            "a query must compute at least one aggregation"
        );
        AttrQuery { group_by, fields }
    }

    /// Convenience constructor for a single-aggregate query.
    pub fn single(group_by: Vec<String>, aggregate: Aggregate, label: &str) -> Self {
        AttrQuery::new(
            group_by,
            vec![QueryField {
                aggregate,
                label: label.to_string(),
            }],
        )
    }

    /// All index variables the query mentions (group-by plus aggregated).
    pub fn vars(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.group_by.iter().map(String::as_str).collect();
        for field in &self.fields {
            for v in field.aggregate.vars() {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Looks up a field by label.
    pub fn field(&self, label: &str) -> Option<&QueryField> {
        self.fields.iter().find(|f| f.label == label)
    }
}

impl fmt::Display for AttrQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fields: Vec<String> = self.fields.iter().map(|x| x.to_string()).collect();
        write!(
            f,
            "select [{}] -> {}",
            self.group_by.join(","),
            fields.join(", ")
        )
    }
}

impl FromStr for AttrQuery {
    type Err = QueryError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        crate::query::parser::parse_query(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_syntax() {
        let q = AttrQuery::single(vec!["i".into()], Aggregate::Count(vec!["j".into()]), "nir");
        assert_eq!(q.to_string(), "select [i] -> count(j) as nir");
        let q = AttrQuery::new(
            vec!["i".into()],
            vec![
                QueryField {
                    aggregate: Aggregate::Min("j".into()),
                    label: "minir".into(),
                },
                QueryField {
                    aggregate: Aggregate::Max("j".into()),
                    label: "maxir".into(),
                },
            ],
        );
        assert_eq!(
            q.to_string(),
            "select [i] -> min(j) as minir, max(j) as maxir"
        );
        let q = AttrQuery::single(vec!["j".into()], Aggregate::Id, "ne");
        assert_eq!(q.to_string(), "select [j] -> id() as ne");
    }

    #[test]
    fn vars_collects_group_and_aggregate_variables() {
        let q = AttrQuery::single(
            vec!["i".into()],
            Aggregate::Count(vec!["j".into(), "k".into()]),
            "nnz",
        );
        assert_eq!(q.vars(), vec!["i", "j", "k"]);
        assert!(q.field("nnz").is_some());
        assert!(q.field("other").is_none());
    }

    #[test]
    #[should_panic]
    fn empty_fields_panics() {
        AttrQuery::new(vec![], vec![]);
    }
}
