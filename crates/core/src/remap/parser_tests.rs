//! Unit tests of `crate::remap::parser`, mounted at the crate root by `lib.rs` so that
//! they run as `parser::tests::…`.

mod tests {
    use crate::remap::ast::{BinOp, IndexExpr};
    use crate::remap::parser::*;

    #[test]
    fn parses_dia_remapping() {
        let r = parse_remapping("(i,j) -> (j-i,i,j)").unwrap();
        assert_eq!(r.src, vec!["i", "j"]);
        assert_eq!(r.dest_order(), 3);
        assert_eq!(r.dst[0].expr.to_string(), "j-i");
        assert_eq!(r.to_string(), "(i,j) -> (j-i,i,j)");
    }

    #[test]
    fn parses_bcsr_remapping_with_parameters() {
        let r = parse_remapping("(i,j) -> (i/M,j/N,i,j)").unwrap();
        assert_eq!(r.params(), vec!["M".to_string(), "N".to_string()]);
        assert_eq!(
            r.dst[0].expr,
            IndexExpr::binary(
                BinOp::Div,
                IndexExpr::var("i"),
                IndexExpr::Param("M".into()),
            )
        );
    }

    #[test]
    fn parses_ell_remapping_with_counter_and_let() {
        let r = parse_remapping("(i,j) -> (k=#i in k,i,j)").unwrap();
        assert!(r.has_counter());
        assert_eq!(r.dst[0].lets.len(), 1);
        assert_eq!(r.dst[0].lets[0].0, "k");
        assert_eq!(r.dst[0].lets[0].1, IndexExpr::Counter(vec!["i".into()]));
        assert_eq!(r.dst[0].expr, IndexExpr::LetVar("k".into()));
    }

    #[test]
    fn parses_bare_counter_destination() {
        let r = parse_remapping("(i,j) -> (#i,i,j)").unwrap();
        assert_eq!(r.dst[0].expr, IndexExpr::Counter(vec!["i".into()]));
    }

    #[test]
    fn parses_multi_variable_counter() {
        let r = parse_remapping("(i,j,k) -> (#i j,i,j,k)").unwrap();
        assert_eq!(
            r.dst[0].expr,
            IndexExpr::Counter(vec!["i".into(), "j".into()])
        );
        // The remaining destination coordinates are the plain variables.
        assert_eq!(r.dst.len(), 4);
        assert_eq!(r.dst[1].expr, IndexExpr::var("i"));
    }

    #[test]
    fn parses_morton_style_nested_lets_and_bitops() {
        let text = "(i,j) -> (r=i/4 in s=j/4 in (r&1)|((s&1)<<1),i/4,j/4,i%4,j%4)";
        let r = parse_remapping(text).unwrap();
        assert_eq!(r.dest_order(), 5);
        assert_eq!(r.dst[0].lets.len(), 2);
        assert_eq!(r.dst[0].expr.to_string(), "r&1|(s&1)<<1");
    }

    #[test]
    fn respects_operator_precedence() {
        let r = parse_remapping("(i,j) -> (i+j*2,i)").unwrap();
        assert_eq!(
            r.dst[0].expr,
            IndexExpr::binary(
                BinOp::Add,
                IndexExpr::var("i"),
                IndexExpr::binary(BinOp::Mul, IndexExpr::var("j"), IndexExpr::Const(2)),
            )
        );
        let r = parse_remapping("(i,j) -> (i&3|j,i)").unwrap();
        // `|` binds loosest.
        match &r.dst[0].expr {
            IndexExpr::Binary(BinOp::Or, _, _) => {}
            other => panic!("expected top-level `|`, got {other:?}"),
        }
    }

    #[test]
    fn parses_leading_negation() {
        let r = parse_remapping("(i,j) -> (-1+i,j)").unwrap();
        assert_eq!(r.dst[0].expr.to_string(), "0-1+i");
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert!(parse_remapping("(i,j) (j,i)").is_err());
        assert!(parse_remapping("(i,j) -> ()").is_err());
        assert!(parse_remapping("() -> (i)").is_err());
        assert!(parse_remapping("(i,i) -> (i)").is_err());
        assert!(parse_remapping("(i,j) -> (k=#i k,i,j)").is_err());
        assert!(parse_remapping("(i,j) -> (i,j) extra").is_err());
        assert!(parse_remapping("(in,j) -> (j)").is_err());
        assert!(parse_remapping("(i,j) -> (i=j in i,j)").is_err());
    }

    #[test]
    fn parse_dst_index_standalone() {
        let src = vec!["i".to_string(), "j".to_string()];
        let d = parse_dst_index("r=i/2 in r*2+j", &src).unwrap();
        assert_eq!(d.lets.len(), 1);
        assert_eq!(d.expr.to_string(), "r*2+j");
        assert!(parse_dst_index("r=", &src).is_err());
    }

    #[test]
    fn roundtrip_through_display() {
        for text in [
            "(i,j) -> (j-i,i,j)",
            "(i,j) -> (i/M,j/N,i,j)",
            "(i,j) -> (k=#i in k,i,j)",
            "(i,j,k) -> (i,j,k)",
        ] {
            let r = parse_remapping(text).unwrap();
            let reparsed = parse_remapping(&r.to_string()).unwrap();
            assert_eq!(r, reparsed, "roundtrip failed for {text}");
        }
    }
}
