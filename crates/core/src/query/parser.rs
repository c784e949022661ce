//! Parser for the attribute query language.

use crate::query::ast::{Aggregate, AttrQuery, QueryField};
use crate::query::error::QueryError;

/// Parses a query such as `select [i] -> count(j) as nir, max(j) as maxir`.
///
/// # Errors
///
/// Returns [`QueryError::Parse`] when the text does not conform to the query
/// grammar of Section 5.1.
pub fn parse_query(input: &str) -> Result<AttrQuery, QueryError> {
    let mut p = Parser { input, pos: 0 };
    p.skip_ws();
    p.expect_keyword("select")?;
    p.skip_ws();
    p.expect_char('[')?;
    let group_by = p.parse_ident_list(']')?;
    p.expect_char(']')?;
    p.skip_ws();
    p.expect_str("->")?;
    let mut fields = Vec::new();
    loop {
        p.skip_ws();
        let aggregate = p.parse_aggregate()?;
        p.skip_ws();
        p.expect_keyword("as")?;
        p.skip_ws();
        let label = p.parse_ident()?;
        fields.push(QueryField { aggregate, label });
        p.skip_ws();
        if !p.try_char(',') {
            break;
        }
    }
    p.skip_ws();
    if !p.at_end() {
        return Err(p.error("unexpected trailing input"));
    }
    if fields.is_empty() {
        return Err(p.error("expected at least one aggregation"));
    }
    Ok(AttrQuery { group_by, fields })
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> QueryError {
        QueryError::Parse(format!("{message} at byte {}", self.pos))
    }

    fn rest(&self) -> &str {
        &self.input[self.pos..]
    }

    fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.rest().chars().next() {
            if c.is_whitespace() {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
    }

    fn try_char(&mut self, c: char) -> bool {
        if self.rest().starts_with(c) {
            self.pos += c.len_utf8();
            true
        } else {
            false
        }
    }

    fn expect_char(&mut self, c: char) -> Result<(), QueryError> {
        if self.try_char(c) {
            Ok(())
        } else {
            Err(self.error(&format!("expected `{c}`")))
        }
    }

    fn expect_str(&mut self, s: &str) -> Result<(), QueryError> {
        if self.rest().starts_with(s) {
            self.pos += s.len();
            Ok(())
        } else {
            Err(self.error(&format!("expected `{s}`")))
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), QueryError> {
        let ident = self.parse_ident()?;
        if ident == kw {
            Ok(())
        } else {
            Err(self.error(&format!("expected keyword `{kw}`, found `{ident}`")))
        }
    }

    fn parse_ident(&mut self) -> Result<String, QueryError> {
        let start = self.pos;
        let mut end = self.pos;
        for c in self.rest().chars() {
            if c.is_ascii_alphanumeric() || c == '_' {
                end += c.len_utf8();
            } else {
                break;
            }
        }
        if end == start || self.input[start..].starts_with(|c: char| c.is_ascii_digit()) {
            return Err(self.error("expected an identifier"));
        }
        self.pos = end;
        Ok(self.input[start..end].to_string())
    }

    fn parse_ident_list(&mut self, terminator: char) -> Result<Vec<String>, QueryError> {
        let mut out = Vec::new();
        self.skip_ws();
        if self.rest().starts_with(terminator) {
            return Ok(out);
        }
        loop {
            self.skip_ws();
            out.push(self.parse_ident()?);
            self.skip_ws();
            if !self.try_char(',') {
                break;
            }
        }
        Ok(out)
    }

    fn parse_aggregate(&mut self) -> Result<Aggregate, QueryError> {
        let name = self.parse_ident()?;
        self.skip_ws();
        self.expect_char('(')?;
        let args = self.parse_ident_list(')')?;
        self.expect_char(')')?;
        match name.as_str() {
            "count" => {
                if args.is_empty() {
                    Err(self.error("count() requires at least one index variable"))
                } else {
                    Ok(Aggregate::Count(args))
                }
            }
            "max" | "min" => {
                if args.len() != 1 {
                    Err(self.error(&format!("{name}() takes exactly one index variable")))
                } else if name == "max" {
                    Ok(Aggregate::Max(args.into_iter().next().expect("one arg")))
                } else {
                    Ok(Aggregate::Min(args.into_iter().next().expect("one arg")))
                }
            }
            "id" => {
                if args.is_empty() {
                    Ok(Aggregate::Id)
                } else {
                    Err(self.error("id() takes no arguments"))
                }
            }
            other => Err(self.error(&format!("unknown aggregation `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure10_queries() {
        let q = parse_query("select [i] -> count(j) as nir").unwrap();
        assert_eq!(q.group_by, vec!["i"]);
        assert_eq!(q.fields[0].aggregate, Aggregate::Count(vec!["j".into()]));
        assert_eq!(q.fields[0].label, "nir");

        let q = parse_query("select [i] -> min(j) as minir, max(j) as maxir").unwrap();
        assert_eq!(q.fields.len(), 2);
        assert_eq!(q.fields[0].aggregate, Aggregate::Min("j".into()));
        assert_eq!(q.fields[1].aggregate, Aggregate::Max("j".into()));

        let q = parse_query("select [j] -> id() as ne").unwrap();
        assert_eq!(q.fields[0].aggregate, Aggregate::Id);
    }

    #[test]
    fn parses_empty_group_by_and_multi_count() {
        let q = parse_query("select [] -> max(i1) as max_crd").unwrap();
        assert!(q.group_by.is_empty());
        let q = parse_query("select [i] -> count(j,k) as nnz_in_slice").unwrap();
        assert_eq!(
            q.fields[0].aggregate,
            Aggregate::Count(vec!["j".into(), "k".into()])
        );
    }

    #[test]
    fn roundtrips_through_display() {
        for text in [
            "select [i] -> count(j) as nir",
            "select [] -> min(k) as lb, max(k) as ub",
            "select [j] -> id() as ne",
            "select [i,j] -> count(k) as n",
        ] {
            let q = parse_query(text).unwrap();
            assert_eq!(
                parse_query(&q.to_string()).unwrap(),
                q,
                "roundtrip for {text}"
            );
        }
    }

    #[test]
    fn rejects_malformed_queries() {
        assert!(parse_query("choose [i] -> id() as x").is_err());
        assert!(parse_query("select i -> id() as x").is_err());
        assert!(parse_query("select [i] -> id() x").is_err());
        assert!(parse_query("select [i] -> count() as x").is_err());
        assert!(parse_query("select [i] -> max(j,k) as x").is_err());
        assert!(parse_query("select [i] -> id(j) as x").is_err());
        assert!(parse_query("select [i] -> unknown(j) as x").is_err());
        assert!(parse_query("select [i] -> id() as x trailing").is_err());
        assert!(parse_query("select [i] ->").is_err());
        assert!(parse_query("select [1i] -> id() as x").is_err());
    }
}
