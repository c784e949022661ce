//! Unit tests of `crate::remap::token`, mounted at the crate root by `lib.rs` so that
//! they run as `token::tests::…`.

mod tests {
    use crate::remap::error::RemapError;
    use crate::remap::token::*;

    fn kinds(input: &str) -> Vec<Token> {
        lex(input).unwrap().into_iter().map(|t| t.token).collect()
    }

    #[test]
    fn lexes_simple_remapping() {
        assert_eq!(
            kinds("(i,j) -> (j-i,i,j)"),
            vec![
                Token::LParen,
                Token::Ident("i".into()),
                Token::Comma,
                Token::Ident("j".into()),
                Token::RParen,
                Token::Arrow,
                Token::LParen,
                Token::Ident("j".into()),
                Token::Minus,
                Token::Ident("i".into()),
                Token::Comma,
                Token::Ident("i".into()),
                Token::Comma,
                Token::Ident("j".into()),
                Token::RParen,
            ]
        );
    }

    #[test]
    fn lexes_counters_shifts_and_bitops() {
        assert_eq!(
            kinds("#i << 2 >> 1 & 3 | 4 ^ 5"),
            vec![
                Token::Hash,
                Token::Ident("i".into()),
                Token::Shl,
                Token::Int(2),
                Token::Shr,
                Token::Int(1),
                Token::Amp,
                Token::Int(3),
                Token::Pipe,
                Token::Int(4),
                Token::Caret,
                Token::Int(5),
            ]
        );
    }

    #[test]
    fn lexes_numbers_and_identifiers_with_digits() {
        assert_eq!(
            kinds("i1 = 42 in i1"),
            vec![
                Token::Ident("i1".into()),
                Token::Equals,
                Token::Int(42),
                Token::Ident("in".into()),
                Token::Ident("i1".into()),
            ]
        );
    }

    #[test]
    fn rejects_stray_characters() {
        assert!(matches!(
            lex("i $ j"),
            Err(RemapError::Lex { found: '$', .. })
        ));
        assert!(matches!(
            lex("i < j"),
            Err(RemapError::Lex { found: '<', .. })
        ));
        assert!(matches!(
            lex("i > j"),
            Err(RemapError::Lex { found: '>', .. })
        ));
    }

    #[test]
    fn positions_point_at_token_start() {
        let tokens = lex("(i, j)").unwrap();
        assert_eq!(tokens[0].position, 0);
        assert_eq!(tokens[1].position, 1);
        assert_eq!(tokens[3].position, 4);
    }
}
