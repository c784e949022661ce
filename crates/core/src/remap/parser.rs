//! Recursive-descent parser for coordinate remapping notation (Figure 8).

use crate::remap::ast::{BinOp, DstIndex, IndexExpr, Remapping};
use crate::remap::error::RemapError;
use crate::remap::token::{lex, SpannedToken, Token};

/// Parses a remapping statement such as `(i,j) -> (j-i,i,j)`.
///
/// Identifiers are classified as follows: names bound on the left-hand side
/// are source index variables, names bound by `v = e in` are let variables,
/// and any other identifier is a symbolic parameter (e.g. the block sizes `M`
/// and `N` in the BCSR remapping).
///
/// # Errors
///
/// Returns [`RemapError::Lex`] or [`RemapError::Parse`] if the text does not
/// conform to the grammar of Figure 8.
pub fn parse_remapping(input: &str) -> Result<Remapping, RemapError> {
    let tokens = lex(input)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        input_len: input.len(),
    };
    let remapping = parser.parse_remapping()?;
    parser.expect_end()?;
    Ok(remapping)
}

/// Parses a single destination-coordinate expression (an `ivar_let`), given
/// the names of the source index variables. Used by tests and by format
/// specifications that build remappings programmatically.
///
/// # Errors
///
/// Returns an error if the text is not a valid `ivar_let`.
pub fn parse_dst_index(input: &str, src_vars: &[String]) -> Result<DstIndex, RemapError> {
    let tokens = lex(input)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        input_len: input.len(),
    };
    let dst = parser.parse_ivar_let(src_vars)?;
    parser.expect_end()?;
    Ok(dst)
}

struct Parser {
    tokens: Vec<SpannedToken>,
    pos: usize,
    input_len: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|t| &t.token)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1).map(|t| &t.token)
    }

    fn position(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|t| t.position)
            .unwrap_or(self.input_len)
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|t| t.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, message: impl Into<String>) -> RemapError {
        RemapError::Parse {
            message: message.into(),
            position: self.position(),
        }
    }

    fn expect(&mut self, expected: &Token, what: &str) -> Result<(), RemapError> {
        match self.peek() {
            Some(t) if t == expected => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(self.error(format!("expected {what}"))),
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String, RemapError> {
        match self.peek() {
            Some(Token::Ident(name)) => {
                let name = name.clone();
                self.pos += 1;
                Ok(name)
            }
            _ => Err(self.error(format!("expected {what}"))),
        }
    }

    fn expect_end(&self) -> Result<(), RemapError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(self.error("unexpected trailing input"))
        }
    }

    fn parse_remapping(&mut self) -> Result<Remapping, RemapError> {
        let src = self.parse_src_indices()?;
        self.expect(&Token::Arrow, "`->`")?;
        let dst = self.parse_dst_indices(&src)?;
        Ok(Remapping::new(src, dst))
    }

    fn parse_src_indices(&mut self) -> Result<Vec<String>, RemapError> {
        self.expect(&Token::LParen, "`(`")?;
        let mut vars = vec![self.expect_ident("a source index variable")?];
        while self.peek() == Some(&Token::Comma) {
            self.pos += 1;
            vars.push(self.expect_ident("a source index variable")?);
        }
        self.expect(&Token::RParen, "`)`")?;
        for (n, v) in vars.iter().enumerate() {
            if vars[..n].contains(v) {
                return Err(self.error(format!("duplicate source index variable `{v}`")));
            }
            if v == "in" {
                return Err(self.error("`in` cannot be used as an index variable"));
            }
        }
        Ok(vars)
    }

    fn parse_dst_indices(&mut self, src: &[String]) -> Result<Vec<DstIndex>, RemapError> {
        self.expect(&Token::LParen, "`(`")?;
        let mut dst = vec![self.parse_ivar_let(src)?];
        while self.peek() == Some(&Token::Comma) {
            self.pos += 1;
            dst.push(self.parse_ivar_let(src)?);
        }
        self.expect(&Token::RParen, "`)`")?;
        Ok(dst)
    }

    fn parse_ivar_let(&mut self, src: &[String]) -> Result<DstIndex, RemapError> {
        let mut lets: Vec<(String, IndexExpr)> = Vec::new();
        loop {
            // A let binding starts with `ident =` (and the ident is not a
            // source variable reference inside an expression, because `=`
            // never appears inside expressions).
            let starts_binding = matches!(
                (self.peek(), self.peek2()),
                (Some(Token::Ident(_)), Some(Token::Equals))
            );
            if !starts_binding {
                break;
            }
            let name = self.expect_ident("a let-bound variable name")?;
            if src.contains(&name) {
                return Err(self.error(format!(
                    "let-bound variable `{name}` shadows a source index variable"
                )));
            }
            self.expect(&Token::Equals, "`=`")?;
            let bound_names: Vec<String> = lets.iter().map(|(n, _)| n.clone()).collect();
            let value = self.parse_expr(src, &bound_names)?;
            lets.push((name, value));
            // The `in` keyword separating the binding from what follows.
            match self.advance() {
                Some(Token::Ident(kw)) if kw == "in" => {}
                _ => return Err(self.error("expected `in` after let binding")),
            }
        }
        let bound_names: Vec<String> = lets.iter().map(|(n, _)| n.clone()).collect();
        let expr = self.parse_expr(src, &bound_names)?;
        Ok(DstIndex { lets, expr })
    }

    fn parse_expr(&mut self, src: &[String], lets: &[String]) -> Result<IndexExpr, RemapError> {
        self.parse_binary(src, lets, 1)
    }

    /// Precedence-climbing over the operator levels of Figure 8.
    fn parse_binary(
        &mut self,
        src: &[String],
        lets: &[String],
        min_prec: u8,
    ) -> Result<IndexExpr, RemapError> {
        let mut lhs = if min_prec > BinOp::Mul.precedence() {
            self.parse_factor(src, lets)?
        } else {
            self.parse_binary(src, lets, min_prec + 1)?
        };
        loop {
            let op = match self.peek() {
                Some(Token::Pipe) => BinOp::Or,
                Some(Token::Caret) => BinOp::Xor,
                Some(Token::Amp) => BinOp::And,
                Some(Token::Shl) => BinOp::Shl,
                Some(Token::Shr) => BinOp::Shr,
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                Some(Token::Percent) => BinOp::Rem,
                _ => break,
            };
            if op.precedence() != min_prec {
                break;
            }
            self.pos += 1;
            let rhs = if min_prec >= BinOp::Mul.precedence() {
                self.parse_factor(src, lets)?
            } else {
                self.parse_binary(src, lets, min_prec + 1)?
            };
            lhs = IndexExpr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_factor(&mut self, src: &[String], lets: &[String]) -> Result<IndexExpr, RemapError> {
        match self.peek().cloned() {
            Some(Token::LParen) => {
                self.pos += 1;
                let inner = self.parse_expr(src, lets)?;
                self.expect(&Token::RParen, "`)`")?;
                Ok(inner)
            }
            Some(Token::Hash) => {
                self.pos += 1;
                // Figure 8: `ivar_counter := '#' { ivar }` — the indexing
                // variables are juxtaposed (e.g. `#i j`), so a following comma
                // always separates destination coordinates instead.
                let mut vars = Vec::new();
                while let Some(Token::Ident(name)) = self.peek() {
                    if name == "in" || !src.contains(name) {
                        break;
                    }
                    vars.push(name.clone());
                    self.pos += 1;
                }
                Ok(IndexExpr::Counter(vars))
            }
            Some(Token::Int(value)) => {
                self.pos += 1;
                Ok(IndexExpr::Const(value))
            }
            Some(Token::Minus) => {
                // Allow a leading negation of a factor (e.g. `-1`).
                self.pos += 1;
                let inner = self.parse_factor(src, lets)?;
                Ok(IndexExpr::binary(BinOp::Sub, IndexExpr::Const(0), inner))
            }
            Some(Token::Ident(name)) => {
                if name == "in" {
                    return Err(self.error("`in` cannot appear inside an expression"));
                }
                self.pos += 1;
                if src.contains(&name) {
                    Ok(IndexExpr::Var(name))
                } else if lets.contains(&name) {
                    Ok(IndexExpr::LetVar(name))
                } else {
                    Ok(IndexExpr::Param(name))
                }
            }
            _ => Err(self.error("expected an expression")),
        }
    }
}
