//! Tokens of coordinate remapping notation.

use crate::remap::error::RemapError;

/// A lexical token of coordinate remapping notation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// An identifier (index variable, let variable, parameter, or the `in`
    /// keyword — the parser distinguishes them).
    Ident(String),
    /// An integer literal.
    Int(i64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `->`
    Arrow,
    /// `=`
    Equals,
    /// `#`
    Hash,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
}

/// A token together with the byte position where it starts (for error
/// reporting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpannedToken {
    /// The token.
    pub token: Token,
    /// Byte offset of the token's first character in the source text.
    pub position: usize,
}

/// Tokenises remapping-notation source text.
///
/// # Errors
///
/// Returns [`RemapError::Lex`] on any character outside the notation's
/// alphabet.
pub fn lex(input: &str) -> Result<Vec<SpannedToken>, RemapError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let c = bytes[pos] as char;
        let start = pos;
        let token = match c {
            c if c.is_whitespace() => {
                pos += 1;
                continue;
            }
            '(' => {
                pos += 1;
                Token::LParen
            }
            ')' => {
                pos += 1;
                Token::RParen
            }
            ',' => {
                pos += 1;
                Token::Comma
            }
            '=' => {
                pos += 1;
                Token::Equals
            }
            '#' => {
                pos += 1;
                Token::Hash
            }
            '+' => {
                pos += 1;
                Token::Plus
            }
            '-' => {
                if bytes.get(pos + 1) == Some(&b'>') {
                    pos += 2;
                    Token::Arrow
                } else {
                    pos += 1;
                    Token::Minus
                }
            }
            '*' => {
                pos += 1;
                Token::Star
            }
            '/' => {
                pos += 1;
                Token::Slash
            }
            '%' => {
                pos += 1;
                Token::Percent
            }
            '&' => {
                pos += 1;
                Token::Amp
            }
            '|' => {
                pos += 1;
                Token::Pipe
            }
            '^' => {
                pos += 1;
                Token::Caret
            }
            '<' => {
                if bytes.get(pos + 1) == Some(&b'<') {
                    pos += 2;
                    Token::Shl
                } else {
                    return Err(RemapError::Lex {
                        position: pos,
                        found: '<',
                    });
                }
            }
            '>' => {
                if bytes.get(pos + 1) == Some(&b'>') {
                    pos += 2;
                    Token::Shr
                } else {
                    return Err(RemapError::Lex {
                        position: pos,
                        found: '>',
                    });
                }
            }
            c if c.is_ascii_digit() => {
                let mut end = pos;
                while end < bytes.len() && (bytes[end] as char).is_ascii_digit() {
                    end += 1;
                }
                let value: i64 = input[pos..end].parse().map_err(|_| RemapError::Lex {
                    position: pos,
                    found: c,
                })?;
                pos = end;
                Token::Int(value)
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut end = pos;
                while end < bytes.len()
                    && ((bytes[end] as char).is_ascii_alphanumeric() || bytes[end] == b'_')
                {
                    end += 1;
                }
                let name = input[pos..end].to_string();
                pos = end;
                Token::Ident(name)
            }
            other => {
                return Err(RemapError::Lex {
                    position: pos,
                    found: other,
                })
            }
        };
        tokens.push(SpannedToken {
            token,
            position: start,
        });
    }
    Ok(tokens)
}
