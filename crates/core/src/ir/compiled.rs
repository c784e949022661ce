// @generated by `cargo test -p sparse-conv --lib compiled_routines_are_fresh`, which
// rewrites this file whenever what `codegen::generate` and `ir::emit` would put
// here differs from what is here. Do not edit it by hand.

//! Conversion routines compiled ahead of time.
//!
//! Every routine `codegen::execute_format` can serve, emitted by the
//! test-only `ir::emit` from what `codegen::generate` returns for it. Each
//! borrows its source's arrays as [`Inputs`] and returns what its target's
//! container is built from as [`Outputs`], with every access checked.

#![allow(non_snake_case, unused_assignments, unused_variables, clippy::needless_late_init)]

use crate::ir::checked::*;

/// The routine compiled ahead of time for the function named `name`.
pub fn lookup(name: &str) -> Option<Routine> {
    Some(match name {
        "convert_coo_to_coo" => convert_coo_to_coo,
        "convert_coo_to_csr" => convert_coo_to_csr,
        "convert_coo_to_csc" => convert_coo_to_csc,
        "convert_coo_to_dia" => convert_coo_to_dia,
        "convert_coo_to_ell" => convert_coo_to_ell,
        "convert_csr_to_coo" => convert_csr_to_coo,
        "convert_csr_to_csr" => convert_csr_to_csr,
        "convert_csr_to_csc" => convert_csr_to_csc,
        "convert_csr_to_dia" => convert_csr_to_dia,
        "convert_csr_to_ell" => convert_csr_to_ell,
        "convert_csc_to_coo" => convert_csc_to_coo,
        "convert_csc_to_csr" => convert_csc_to_csr,
        "convert_csc_to_csc" => convert_csc_to_csc,
        "convert_csc_to_dia" => convert_csc_to_dia,
        "convert_csc_to_ell" => convert_csc_to_ell,
        "convert_coo3_to_coo3" => convert_coo3_to_coo3,
        "convert_coo3_to_csf" => convert_coo3_to_csf,
        "convert_coo3_to_csf_021" => convert_coo3_to_csf_021,
        "convert_coo3_to_csf_102" => convert_coo3_to_csf_102,
        "convert_coo3_to_csf_120" => convert_coo3_to_csf_120,
        "convert_coo3_to_csf_201" => convert_coo3_to_csf_201,
        "convert_coo3_to_csf_210" => convert_coo3_to_csf_210,
        "convert_csf_to_coo3" => convert_csf_to_coo3,
        #[cfg(test)] "emit_fixture" => emit_fixture,
        _ => return None,
    })
}

fn convert_coo_to_coo(inputs: &Inputs<'_>) -> Checked<Outputs> {
    let b_A1_crd = inputs.int_array(0, "A1_crd")?;
    let b_A2_crd = inputs.int_array(1, "A2_crd")?;
    let b_A_vals = inputs.float_array(0, "A_vals")?;
    let v_nnz = inputs.int(2, "nnz")?;
    let mut b_B1_crd: Vec<i64>;
    let mut b_B2_crd: Vec<i64>;
    let mut b_B_vals: Vec<f64>;
    let mut v_i: i64;
    let mut v_j: i64;
    let mut v_p: i64;
    let mut v_q: i64;
    // assembly: append nonzeros in source order
    b_B1_crd = alloc(v_nnz)?;
    b_B2_crd = alloc(v_nnz)?;
    b_B_vals = alloc(v_nnz)?;
    v_q = 0_i64;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_i = ld(b_A1_crd, v_p, "A1_crd")? as i64;
        v_j = ld(b_A2_crd, v_p, "A2_crd")? as i64;
        update(v_q, v_i, &mut b_B1_crd, "B1_crd", |_, v| v)?;
        update(v_q, v_j, &mut b_B2_crd, "B2_crd", |_, v| v)?;
        update(v_q, ld(b_A_vals, v_p, "A_vals")?, &mut b_B_vals, "B_vals", |_, v| v)?;
        v_q = v_q.wrapping_add(1_i64);
    }
    Ok(Outputs {
        ints: vec!(("B1_crd", b_B1_crd), ("B2_crd", b_B2_crd)),
        floats: vec!(("B_vals", b_B_vals)),
        scalars: vec!(),
    })
}

fn convert_coo_to_csr(inputs: &Inputs<'_>) -> Checked<Outputs> {
    let b_A1_crd = inputs.int_array(0, "A1_crd")?;
    let b_A2_crd = inputs.int_array(1, "A2_crd")?;
    let b_A_vals = inputs.float_array(0, "A_vals")?;
    let v_N = inputs.int(0, "N")?;
    let v_nnz = inputs.int(2, "nnz")?;
    let mut b_B_crd: Vec<i64>;
    let mut b_B_pos: Vec<i64>;
    let mut b_B_vals: Vec<f64>;
    let mut b_count: Vec<i64>;
    let mut b_cursor: Vec<i64>;
    let mut v_i: i64;
    let mut v_j: i64;
    let mut v_p: i64;
    let mut v_pB: i64;
    let mut v_r: i64;
    // analysis: count nonzeros per output group
    b_count = alloc(v_N)?;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_i = ld(b_A1_crd, v_p, "A1_crd")? as i64;
        v_j = ld(b_A2_crd, v_p, "A2_crd")? as i64;
        update(v_i, 1_i64, &mut b_count, "count", i64::wrapping_add)?;
    }
    // assembly: sequenced edge insertion (pos) then coordinate insertion
    b_B_pos = alloc(v_N.wrapping_add(1_i64))?;
    for it in 0_i64..v_N {
        v_r = it;
        update(v_r.wrapping_add(1_i64), ld(&b_B_pos, v_r, "B_pos")?.wrapping_add(ld(&b_count, v_r, "count")?), &mut b_B_pos, "B_pos", |_, v| v)?;
    }
    b_B_crd = alloc(v_nnz)?;
    b_B_vals = alloc(v_nnz)?;
    b_cursor = alloc(v_N)?;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_i = ld(b_A1_crd, v_p, "A1_crd")? as i64;
        v_j = ld(b_A2_crd, v_p, "A2_crd")? as i64;
        v_pB = ld(&b_B_pos, v_i, "B_pos")?.wrapping_add(ld(&b_cursor, v_i, "cursor")?);
        update(v_i, 1_i64, &mut b_cursor, "cursor", i64::wrapping_add)?;
        update(v_pB, v_j, &mut b_B_crd, "B_crd", |_, v| v)?;
        update(v_pB, ld(b_A_vals, v_p, "A_vals")?, &mut b_B_vals, "B_vals", |_, v| v)?;
    }
    Ok(Outputs {
        ints: vec!(("B_pos", b_B_pos), ("B_crd", b_B_crd)),
        floats: vec!(("B_vals", b_B_vals)),
        scalars: vec!(),
    })
}

fn convert_coo_to_csc(inputs: &Inputs<'_>) -> Checked<Outputs> {
    let b_A1_crd = inputs.int_array(0, "A1_crd")?;
    let b_A2_crd = inputs.int_array(1, "A2_crd")?;
    let b_A_vals = inputs.float_array(0, "A_vals")?;
    let v_M = inputs.int(1, "M")?;
    let v_nnz = inputs.int(2, "nnz")?;
    let mut b_B_crd: Vec<i64>;
    let mut b_B_pos: Vec<i64>;
    let mut b_B_vals: Vec<f64>;
    let mut b_count: Vec<i64>;
    let mut b_cursor: Vec<i64>;
    let mut v_i: i64;
    let mut v_j: i64;
    let mut v_p: i64;
    let mut v_pB: i64;
    let mut v_r: i64;
    // analysis: count nonzeros per output group
    b_count = alloc(v_M)?;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_i = ld(b_A1_crd, v_p, "A1_crd")? as i64;
        v_j = ld(b_A2_crd, v_p, "A2_crd")? as i64;
        update(v_j, 1_i64, &mut b_count, "count", i64::wrapping_add)?;
    }
    // assembly: sequenced edge insertion (pos) then coordinate insertion
    b_B_pos = alloc(v_M.wrapping_add(1_i64))?;
    for it in 0_i64..v_M {
        v_r = it;
        update(v_r.wrapping_add(1_i64), ld(&b_B_pos, v_r, "B_pos")?.wrapping_add(ld(&b_count, v_r, "count")?), &mut b_B_pos, "B_pos", |_, v| v)?;
    }
    b_B_crd = alloc(v_nnz)?;
    b_B_vals = alloc(v_nnz)?;
    b_cursor = alloc(v_M)?;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_i = ld(b_A1_crd, v_p, "A1_crd")? as i64;
        v_j = ld(b_A2_crd, v_p, "A2_crd")? as i64;
        v_pB = ld(&b_B_pos, v_j, "B_pos")?.wrapping_add(ld(&b_cursor, v_j, "cursor")?);
        update(v_j, 1_i64, &mut b_cursor, "cursor", i64::wrapping_add)?;
        update(v_pB, v_i, &mut b_B_crd, "B_crd", |_, v| v)?;
        update(v_pB, ld(b_A_vals, v_p, "A_vals")?, &mut b_B_vals, "B_vals", |_, v| v)?;
    }
    Ok(Outputs {
        ints: vec!(("B_pos", b_B_pos), ("B_crd", b_B_crd)),
        floats: vec!(("B_vals", b_B_vals)),
        scalars: vec!(),
    })
}

fn convert_coo_to_dia(inputs: &Inputs<'_>) -> Checked<Outputs> {
    let b_A1_crd = inputs.int_array(0, "A1_crd")?;
    let b_A2_crd = inputs.int_array(1, "A2_crd")?;
    let b_A_vals = inputs.float_array(0, "A_vals")?;
    let v_N = inputs.int(0, "N")?;
    let v_M = inputs.int(1, "M")?;
    let v_nnz = inputs.int(2, "nnz")?;
    let mut b_B_perm: Vec<i64>;
    let mut b_B_vals: Vec<f64>;
    let mut b_nz: Vec<i64>;
    let mut b_rperm: Vec<i64>;
    let mut v_K: i64;
    let mut v_d: i64;
    let mut v_i: i64;
    let mut v_j: i64;
    let mut v_k: i64;
    let mut v_p: i64;
    let mut v_pB1: i64;
    let mut v_pB2: i64;
    // fused remapping + analysis: mark nonzero diagonals
    b_nz = alloc(i64::max(v_N.wrapping_add(v_M).wrapping_sub(1_i64), 0_i64))?;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_i = ld(b_A1_crd, v_p, "A1_crd")? as i64;
        v_j = ld(b_A2_crd, v_p, "A2_crd")? as i64;
        v_k = v_j.wrapping_sub(v_i);
        update(v_k.wrapping_add(v_N.wrapping_sub(1_i64)), 1_i64, &mut b_nz, "nz", |_, v| v)?;
    }
    // assembly: collect offsets (perm), build rperm, scatter values
    b_B_perm = alloc(i64::max(v_N.wrapping_add(v_M).wrapping_sub(1_i64), 0_i64))?;
    v_K = 0_i64;
    for it in 0_i64..i64::max(v_N.wrapping_add(v_M).wrapping_sub(1_i64), 0_i64) {
        v_d = it;
        if ld(&b_nz, v_d, "nz")? != 0_i64 {
            update(v_K, v_d.wrapping_sub(v_N.wrapping_sub(1_i64)), &mut b_B_perm, "B_perm", |_, v| v)?;
            v_K = v_K.wrapping_add(1_i64);
        }
    }
    b_rperm = alloc(i64::max(v_N.wrapping_add(v_M).wrapping_sub(1_i64), 0_i64))?;
    for it in 0_i64..v_K {
        v_d = it;
        update(ld(&b_B_perm, v_d, "B_perm")?.wrapping_add(v_N.wrapping_sub(1_i64)), v_d, &mut b_rperm, "rperm", |_, v| v)?;
    }
    b_B_vals = alloc(v_K.wrapping_mul(v_N))?;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_i = ld(b_A1_crd, v_p, "A1_crd")? as i64;
        v_j = ld(b_A2_crd, v_p, "A2_crd")? as i64;
        v_k = v_j.wrapping_sub(v_i);
        v_pB1 = ld(&b_rperm, v_k.wrapping_add(v_N.wrapping_sub(1_i64)), "rperm")?;
        v_pB2 = v_pB1.wrapping_mul(v_N).wrapping_add(v_i);
        update(v_pB2, ld(b_A_vals, v_p, "A_vals")?, &mut b_B_vals, "B_vals", |_, v| v)?;
    }
    Ok(Outputs {
        ints: vec!(("B_perm", b_B_perm)),
        floats: vec!(("B_vals", b_B_vals)),
        scalars: vec!(("K", v_K)),
    })
}

fn convert_coo_to_ell(inputs: &Inputs<'_>) -> Checked<Outputs> {
    let b_A1_crd = inputs.int_array(0, "A1_crd")?;
    let b_A2_crd = inputs.int_array(1, "A2_crd")?;
    let b_A_vals = inputs.float_array(0, "A_vals")?;
    let v_N = inputs.int(0, "N")?;
    let v_nnz = inputs.int(2, "nnz")?;
    let mut b_B_crd: Vec<i64>;
    let mut b_B_vals: Vec<f64>;
    let mut b_count: Vec<i64>;
    let mut b_counter: Vec<i64>;
    let mut v_K: i64;
    let mut v_c: i64;
    let mut v_i: i64;
    let mut v_j: i64;
    let mut v_p: i64;
    let mut v_pB: i64;
    let mut v_r: i64;
    // analysis: maximum number of nonzeros in any row
    b_count = alloc(v_N)?;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_i = ld(b_A1_crd, v_p, "A1_crd")? as i64;
        v_j = ld(b_A2_crd, v_p, "A2_crd")? as i64;
        update(v_i, 1_i64, &mut b_count, "count", i64::wrapping_add)?;
    }
    v_K = 0_i64;
    for it in 0_i64..v_N {
        v_r = it;
        v_K = i64::max(v_K, ld(&b_count, v_r, "count")?);
    }
    // assembly: scatter into K slices (calloc'd output)
    b_B_crd = alloc(v_K.wrapping_mul(v_N))?;
    b_B_vals = alloc(v_K.wrapping_mul(v_N))?;
    b_counter = alloc(v_N)?;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_i = ld(b_A1_crd, v_p, "A1_crd")? as i64;
        v_j = ld(b_A2_crd, v_p, "A2_crd")? as i64;
        v_c = ld(&b_counter, v_i, "counter")?;
        update(v_i, 1_i64, &mut b_counter, "counter", i64::wrapping_add)?;
        v_pB = v_c.wrapping_mul(v_N).wrapping_add(v_i);
        update(v_pB, v_j, &mut b_B_crd, "B_crd", |_, v| v)?;
        update(v_pB, ld(b_A_vals, v_p, "A_vals")?, &mut b_B_vals, "B_vals", |_, v| v)?;
    }
    Ok(Outputs {
        ints: vec!(("B_crd", b_B_crd)),
        floats: vec!(("B_vals", b_B_vals)),
        scalars: vec!(("K", v_K)),
    })
}

fn convert_csr_to_coo(inputs: &Inputs<'_>) -> Checked<Outputs> {
    let b_A_pos = inputs.int_array(0, "A_pos")?;
    let b_A_crd = inputs.int_array(1, "A_crd")?;
    let b_A_vals = inputs.float_array(0, "A_vals")?;
    let v_N = inputs.int(0, "N")?;
    let v_nnz = inputs.int(2, "nnz")?;
    let mut b_B1_crd: Vec<i64>;
    let mut b_B2_crd: Vec<i64>;
    let mut b_B_vals: Vec<f64>;
    let mut v_i: i64;
    let mut v_j: i64;
    let mut v_p: i64;
    let mut v_q: i64;
    // assembly: append nonzeros in source order
    b_B1_crd = alloc(v_nnz)?;
    b_B2_crd = alloc(v_nnz)?;
    b_B_vals = alloc(v_nnz)?;
    v_q = 0_i64;
    for it in 0_i64..v_N {
        v_i = it;
        for it in (ld(b_A_pos, v_i, "A_pos")? as i64)..(ld(b_A_pos, v_i.wrapping_add(1_i64), "A_pos")? as i64) {
            v_p = it;
            v_j = ld(b_A_crd, v_p, "A_crd")? as i64;
            update(v_q, v_i, &mut b_B1_crd, "B1_crd", |_, v| v)?;
            update(v_q, v_j, &mut b_B2_crd, "B2_crd", |_, v| v)?;
            update(v_q, ld(b_A_vals, v_p, "A_vals")?, &mut b_B_vals, "B_vals", |_, v| v)?;
            v_q = v_q.wrapping_add(1_i64);
        }
    }
    Ok(Outputs {
        ints: vec!(("B1_crd", b_B1_crd), ("B2_crd", b_B2_crd)),
        floats: vec!(("B_vals", b_B_vals)),
        scalars: vec!(),
    })
}

fn convert_csr_to_csr(inputs: &Inputs<'_>) -> Checked<Outputs> {
    let b_A_pos = inputs.int_array(0, "A_pos")?;
    let b_A_crd = inputs.int_array(1, "A_crd")?;
    let b_A_vals = inputs.float_array(0, "A_vals")?;
    let v_N = inputs.int(0, "N")?;
    let v_nnz = inputs.int(2, "nnz")?;
    let mut b_B_crd: Vec<i64>;
    let mut b_B_pos: Vec<i64>;
    let mut b_B_vals: Vec<f64>;
    let mut b_count: Vec<i64>;
    let mut b_cursor: Vec<i64>;
    let mut v_i: i64;
    let mut v_j: i64;
    let mut v_p: i64;
    let mut v_pB: i64;
    let mut v_r: i64;
    // analysis: count nonzeros per output group
    b_count = alloc(v_N)?;
    for it in 0_i64..v_N {
        v_i = it;
        for it in (ld(b_A_pos, v_i, "A_pos")? as i64)..(ld(b_A_pos, v_i.wrapping_add(1_i64), "A_pos")? as i64) {
            v_p = it;
            v_j = ld(b_A_crd, v_p, "A_crd")? as i64;
            update(v_i, 1_i64, &mut b_count, "count", i64::wrapping_add)?;
        }
    }
    // assembly: sequenced edge insertion (pos) then coordinate insertion
    b_B_pos = alloc(v_N.wrapping_add(1_i64))?;
    for it in 0_i64..v_N {
        v_r = it;
        update(v_r.wrapping_add(1_i64), ld(&b_B_pos, v_r, "B_pos")?.wrapping_add(ld(&b_count, v_r, "count")?), &mut b_B_pos, "B_pos", |_, v| v)?;
    }
    b_B_crd = alloc(v_nnz)?;
    b_B_vals = alloc(v_nnz)?;
    b_cursor = alloc(v_N)?;
    for it in 0_i64..v_N {
        v_i = it;
        for it in (ld(b_A_pos, v_i, "A_pos")? as i64)..(ld(b_A_pos, v_i.wrapping_add(1_i64), "A_pos")? as i64) {
            v_p = it;
            v_j = ld(b_A_crd, v_p, "A_crd")? as i64;
            v_pB = ld(&b_B_pos, v_i, "B_pos")?.wrapping_add(ld(&b_cursor, v_i, "cursor")?);
            update(v_i, 1_i64, &mut b_cursor, "cursor", i64::wrapping_add)?;
            update(v_pB, v_j, &mut b_B_crd, "B_crd", |_, v| v)?;
            update(v_pB, ld(b_A_vals, v_p, "A_vals")?, &mut b_B_vals, "B_vals", |_, v| v)?;
        }
    }
    Ok(Outputs {
        ints: vec!(("B_pos", b_B_pos), ("B_crd", b_B_crd)),
        floats: vec!(("B_vals", b_B_vals)),
        scalars: vec!(),
    })
}

fn convert_csr_to_csc(inputs: &Inputs<'_>) -> Checked<Outputs> {
    let b_A_pos = inputs.int_array(0, "A_pos")?;
    let b_A_crd = inputs.int_array(1, "A_crd")?;
    let b_A_vals = inputs.float_array(0, "A_vals")?;
    let v_N = inputs.int(0, "N")?;
    let v_M = inputs.int(1, "M")?;
    let v_nnz = inputs.int(2, "nnz")?;
    let mut b_B_crd: Vec<i64>;
    let mut b_B_pos: Vec<i64>;
    let mut b_B_vals: Vec<f64>;
    let mut b_count: Vec<i64>;
    let mut b_cursor: Vec<i64>;
    let mut v_i: i64;
    let mut v_j: i64;
    let mut v_p: i64;
    let mut v_pB: i64;
    let mut v_r: i64;
    // analysis: count nonzeros per output group
    b_count = alloc(v_M)?;
    for it in 0_i64..v_N {
        v_i = it;
        for it in (ld(b_A_pos, v_i, "A_pos")? as i64)..(ld(b_A_pos, v_i.wrapping_add(1_i64), "A_pos")? as i64) {
            v_p = it;
            v_j = ld(b_A_crd, v_p, "A_crd")? as i64;
            update(v_j, 1_i64, &mut b_count, "count", i64::wrapping_add)?;
        }
    }
    // assembly: sequenced edge insertion (pos) then coordinate insertion
    b_B_pos = alloc(v_M.wrapping_add(1_i64))?;
    for it in 0_i64..v_M {
        v_r = it;
        update(v_r.wrapping_add(1_i64), ld(&b_B_pos, v_r, "B_pos")?.wrapping_add(ld(&b_count, v_r, "count")?), &mut b_B_pos, "B_pos", |_, v| v)?;
    }
    b_B_crd = alloc(v_nnz)?;
    b_B_vals = alloc(v_nnz)?;
    b_cursor = alloc(v_M)?;
    for it in 0_i64..v_N {
        v_i = it;
        for it in (ld(b_A_pos, v_i, "A_pos")? as i64)..(ld(b_A_pos, v_i.wrapping_add(1_i64), "A_pos")? as i64) {
            v_p = it;
            v_j = ld(b_A_crd, v_p, "A_crd")? as i64;
            v_pB = ld(&b_B_pos, v_j, "B_pos")?.wrapping_add(ld(&b_cursor, v_j, "cursor")?);
            update(v_j, 1_i64, &mut b_cursor, "cursor", i64::wrapping_add)?;
            update(v_pB, v_i, &mut b_B_crd, "B_crd", |_, v| v)?;
            update(v_pB, ld(b_A_vals, v_p, "A_vals")?, &mut b_B_vals, "B_vals", |_, v| v)?;
        }
    }
    Ok(Outputs {
        ints: vec!(("B_pos", b_B_pos), ("B_crd", b_B_crd)),
        floats: vec!(("B_vals", b_B_vals)),
        scalars: vec!(),
    })
}

fn convert_csr_to_dia(inputs: &Inputs<'_>) -> Checked<Outputs> {
    let b_A_pos = inputs.int_array(0, "A_pos")?;
    let b_A_crd = inputs.int_array(1, "A_crd")?;
    let b_A_vals = inputs.float_array(0, "A_vals")?;
    let v_N = inputs.int(0, "N")?;
    let v_M = inputs.int(1, "M")?;
    let mut b_B_perm: Vec<i64>;
    let mut b_B_vals: Vec<f64>;
    let mut b_nz: Vec<i64>;
    let mut b_rperm: Vec<i64>;
    let mut v_K: i64;
    let mut v_d: i64;
    let mut v_i: i64;
    let mut v_j: i64;
    let mut v_k: i64;
    let mut v_p: i64;
    let mut v_pB1: i64;
    let mut v_pB2: i64;
    // fused remapping + analysis: mark nonzero diagonals
    b_nz = alloc(i64::max(v_N.wrapping_add(v_M).wrapping_sub(1_i64), 0_i64))?;
    for it in 0_i64..v_N {
        v_i = it;
        for it in (ld(b_A_pos, v_i, "A_pos")? as i64)..(ld(b_A_pos, v_i.wrapping_add(1_i64), "A_pos")? as i64) {
            v_p = it;
            v_j = ld(b_A_crd, v_p, "A_crd")? as i64;
            v_k = v_j.wrapping_sub(v_i);
            update(v_k.wrapping_add(v_N.wrapping_sub(1_i64)), 1_i64, &mut b_nz, "nz", |_, v| v)?;
        }
    }
    // assembly: collect offsets (perm), build rperm, scatter values
    b_B_perm = alloc(i64::max(v_N.wrapping_add(v_M).wrapping_sub(1_i64), 0_i64))?;
    v_K = 0_i64;
    for it in 0_i64..i64::max(v_N.wrapping_add(v_M).wrapping_sub(1_i64), 0_i64) {
        v_d = it;
        if ld(&b_nz, v_d, "nz")? != 0_i64 {
            update(v_K, v_d.wrapping_sub(v_N.wrapping_sub(1_i64)), &mut b_B_perm, "B_perm", |_, v| v)?;
            v_K = v_K.wrapping_add(1_i64);
        }
    }
    b_rperm = alloc(i64::max(v_N.wrapping_add(v_M).wrapping_sub(1_i64), 0_i64))?;
    for it in 0_i64..v_K {
        v_d = it;
        update(ld(&b_B_perm, v_d, "B_perm")?.wrapping_add(v_N.wrapping_sub(1_i64)), v_d, &mut b_rperm, "rperm", |_, v| v)?;
    }
    b_B_vals = alloc(v_K.wrapping_mul(v_N))?;
    for it in 0_i64..v_N {
        v_i = it;
        for it in (ld(b_A_pos, v_i, "A_pos")? as i64)..(ld(b_A_pos, v_i.wrapping_add(1_i64), "A_pos")? as i64) {
            v_p = it;
            v_j = ld(b_A_crd, v_p, "A_crd")? as i64;
            v_k = v_j.wrapping_sub(v_i);
            v_pB1 = ld(&b_rperm, v_k.wrapping_add(v_N.wrapping_sub(1_i64)), "rperm")?;
            v_pB2 = v_pB1.wrapping_mul(v_N).wrapping_add(v_i);
            update(v_pB2, ld(b_A_vals, v_p, "A_vals")?, &mut b_B_vals, "B_vals", |_, v| v)?;
        }
    }
    Ok(Outputs {
        ints: vec!(("B_perm", b_B_perm)),
        floats: vec!(("B_vals", b_B_vals)),
        scalars: vec!(("K", v_K)),
    })
}

fn convert_csr_to_ell(inputs: &Inputs<'_>) -> Checked<Outputs> {
    let b_A_pos = inputs.int_array(0, "A_pos")?;
    let b_A_crd = inputs.int_array(1, "A_crd")?;
    let b_A_vals = inputs.float_array(0, "A_vals")?;
    let v_N = inputs.int(0, "N")?;
    let mut b_B_crd: Vec<i64>;
    let mut b_B_vals: Vec<f64>;
    let mut b_count: Vec<i64>;
    let mut v_K: i64;
    let mut v_c: i64;
    let mut v_i: i64;
    let mut v_j: i64;
    let mut v_p: i64;
    let mut v_pB: i64;
    let mut v_r: i64;
    // analysis: maximum number of nonzeros in any row
    b_count = alloc(v_N)?;
    for it in 0_i64..v_N {
        v_i = it;
        for it in (ld(b_A_pos, v_i, "A_pos")? as i64)..(ld(b_A_pos, v_i.wrapping_add(1_i64), "A_pos")? as i64) {
            v_p = it;
            v_j = ld(b_A_crd, v_p, "A_crd")? as i64;
            update(v_i, 1_i64, &mut b_count, "count", i64::wrapping_add)?;
        }
    }
    v_K = 0_i64;
    for it in 0_i64..v_N {
        v_r = it;
        v_K = i64::max(v_K, ld(&b_count, v_r, "count")?);
    }
    // assembly: scatter into K slices (calloc'd output)
    b_B_crd = alloc(v_K.wrapping_mul(v_N))?;
    b_B_vals = alloc(v_K.wrapping_mul(v_N))?;
    for it in 0_i64..v_N {
        v_i = it;
        v_c = 0_i64;
        for it in (ld(b_A_pos, v_i, "A_pos")? as i64)..(ld(b_A_pos, v_i.wrapping_add(1_i64), "A_pos")? as i64) {
            v_p = it;
            v_j = ld(b_A_crd, v_p, "A_crd")? as i64;
            v_pB = v_c.wrapping_mul(v_N).wrapping_add(v_i);
            v_c = v_c.wrapping_add(1_i64);
            update(v_pB, v_j, &mut b_B_crd, "B_crd", |_, v| v)?;
            update(v_pB, ld(b_A_vals, v_p, "A_vals")?, &mut b_B_vals, "B_vals", |_, v| v)?;
        }
    }
    Ok(Outputs {
        ints: vec!(("B_crd", b_B_crd)),
        floats: vec!(("B_vals", b_B_vals)),
        scalars: vec!(("K", v_K)),
    })
}

fn convert_csc_to_coo(inputs: &Inputs<'_>) -> Checked<Outputs> {
    let b_A_pos = inputs.int_array(0, "A_pos")?;
    let b_A_crd = inputs.int_array(1, "A_crd")?;
    let b_A_vals = inputs.float_array(0, "A_vals")?;
    let v_M = inputs.int(1, "M")?;
    let v_nnz = inputs.int(2, "nnz")?;
    let mut b_B1_crd: Vec<i64>;
    let mut b_B2_crd: Vec<i64>;
    let mut b_B_vals: Vec<f64>;
    let mut v_i: i64;
    let mut v_j: i64;
    let mut v_p: i64;
    let mut v_q: i64;
    // assembly: append nonzeros in source order
    b_B1_crd = alloc(v_nnz)?;
    b_B2_crd = alloc(v_nnz)?;
    b_B_vals = alloc(v_nnz)?;
    v_q = 0_i64;
    for it in 0_i64..v_M {
        v_j = it;
        for it in (ld(b_A_pos, v_j, "A_pos")? as i64)..(ld(b_A_pos, v_j.wrapping_add(1_i64), "A_pos")? as i64) {
            v_p = it;
            v_i = ld(b_A_crd, v_p, "A_crd")? as i64;
            update(v_q, v_i, &mut b_B1_crd, "B1_crd", |_, v| v)?;
            update(v_q, v_j, &mut b_B2_crd, "B2_crd", |_, v| v)?;
            update(v_q, ld(b_A_vals, v_p, "A_vals")?, &mut b_B_vals, "B_vals", |_, v| v)?;
            v_q = v_q.wrapping_add(1_i64);
        }
    }
    Ok(Outputs {
        ints: vec!(("B1_crd", b_B1_crd), ("B2_crd", b_B2_crd)),
        floats: vec!(("B_vals", b_B_vals)),
        scalars: vec!(),
    })
}

fn convert_csc_to_csr(inputs: &Inputs<'_>) -> Checked<Outputs> {
    let b_A_pos = inputs.int_array(0, "A_pos")?;
    let b_A_crd = inputs.int_array(1, "A_crd")?;
    let b_A_vals = inputs.float_array(0, "A_vals")?;
    let v_N = inputs.int(0, "N")?;
    let v_M = inputs.int(1, "M")?;
    let v_nnz = inputs.int(2, "nnz")?;
    let mut b_B_crd: Vec<i64>;
    let mut b_B_pos: Vec<i64>;
    let mut b_B_vals: Vec<f64>;
    let mut b_count: Vec<i64>;
    let mut b_cursor: Vec<i64>;
    let mut v_i: i64;
    let mut v_j: i64;
    let mut v_p: i64;
    let mut v_pB: i64;
    let mut v_r: i64;
    // analysis: count nonzeros per output group
    b_count = alloc(v_N)?;
    for it in 0_i64..v_M {
        v_j = it;
        for it in (ld(b_A_pos, v_j, "A_pos")? as i64)..(ld(b_A_pos, v_j.wrapping_add(1_i64), "A_pos")? as i64) {
            v_p = it;
            v_i = ld(b_A_crd, v_p, "A_crd")? as i64;
            update(v_i, 1_i64, &mut b_count, "count", i64::wrapping_add)?;
        }
    }
    // assembly: sequenced edge insertion (pos) then coordinate insertion
    b_B_pos = alloc(v_N.wrapping_add(1_i64))?;
    for it in 0_i64..v_N {
        v_r = it;
        update(v_r.wrapping_add(1_i64), ld(&b_B_pos, v_r, "B_pos")?.wrapping_add(ld(&b_count, v_r, "count")?), &mut b_B_pos, "B_pos", |_, v| v)?;
    }
    b_B_crd = alloc(v_nnz)?;
    b_B_vals = alloc(v_nnz)?;
    b_cursor = alloc(v_N)?;
    for it in 0_i64..v_M {
        v_j = it;
        for it in (ld(b_A_pos, v_j, "A_pos")? as i64)..(ld(b_A_pos, v_j.wrapping_add(1_i64), "A_pos")? as i64) {
            v_p = it;
            v_i = ld(b_A_crd, v_p, "A_crd")? as i64;
            v_pB = ld(&b_B_pos, v_i, "B_pos")?.wrapping_add(ld(&b_cursor, v_i, "cursor")?);
            update(v_i, 1_i64, &mut b_cursor, "cursor", i64::wrapping_add)?;
            update(v_pB, v_j, &mut b_B_crd, "B_crd", |_, v| v)?;
            update(v_pB, ld(b_A_vals, v_p, "A_vals")?, &mut b_B_vals, "B_vals", |_, v| v)?;
        }
    }
    Ok(Outputs {
        ints: vec!(("B_pos", b_B_pos), ("B_crd", b_B_crd)),
        floats: vec!(("B_vals", b_B_vals)),
        scalars: vec!(),
    })
}

fn convert_csc_to_csc(inputs: &Inputs<'_>) -> Checked<Outputs> {
    let b_A_pos = inputs.int_array(0, "A_pos")?;
    let b_A_crd = inputs.int_array(1, "A_crd")?;
    let b_A_vals = inputs.float_array(0, "A_vals")?;
    let v_M = inputs.int(1, "M")?;
    let v_nnz = inputs.int(2, "nnz")?;
    let mut b_B_crd: Vec<i64>;
    let mut b_B_pos: Vec<i64>;
    let mut b_B_vals: Vec<f64>;
    let mut b_count: Vec<i64>;
    let mut b_cursor: Vec<i64>;
    let mut v_i: i64;
    let mut v_j: i64;
    let mut v_p: i64;
    let mut v_pB: i64;
    let mut v_r: i64;
    // analysis: count nonzeros per output group
    b_count = alloc(v_M)?;
    for it in 0_i64..v_M {
        v_j = it;
        for it in (ld(b_A_pos, v_j, "A_pos")? as i64)..(ld(b_A_pos, v_j.wrapping_add(1_i64), "A_pos")? as i64) {
            v_p = it;
            v_i = ld(b_A_crd, v_p, "A_crd")? as i64;
            update(v_j, 1_i64, &mut b_count, "count", i64::wrapping_add)?;
        }
    }
    // assembly: sequenced edge insertion (pos) then coordinate insertion
    b_B_pos = alloc(v_M.wrapping_add(1_i64))?;
    for it in 0_i64..v_M {
        v_r = it;
        update(v_r.wrapping_add(1_i64), ld(&b_B_pos, v_r, "B_pos")?.wrapping_add(ld(&b_count, v_r, "count")?), &mut b_B_pos, "B_pos", |_, v| v)?;
    }
    b_B_crd = alloc(v_nnz)?;
    b_B_vals = alloc(v_nnz)?;
    b_cursor = alloc(v_M)?;
    for it in 0_i64..v_M {
        v_j = it;
        for it in (ld(b_A_pos, v_j, "A_pos")? as i64)..(ld(b_A_pos, v_j.wrapping_add(1_i64), "A_pos")? as i64) {
            v_p = it;
            v_i = ld(b_A_crd, v_p, "A_crd")? as i64;
            v_pB = ld(&b_B_pos, v_j, "B_pos")?.wrapping_add(ld(&b_cursor, v_j, "cursor")?);
            update(v_j, 1_i64, &mut b_cursor, "cursor", i64::wrapping_add)?;
            update(v_pB, v_i, &mut b_B_crd, "B_crd", |_, v| v)?;
            update(v_pB, ld(b_A_vals, v_p, "A_vals")?, &mut b_B_vals, "B_vals", |_, v| v)?;
        }
    }
    Ok(Outputs {
        ints: vec!(("B_pos", b_B_pos), ("B_crd", b_B_crd)),
        floats: vec!(("B_vals", b_B_vals)),
        scalars: vec!(),
    })
}

fn convert_csc_to_dia(inputs: &Inputs<'_>) -> Checked<Outputs> {
    let b_A_pos = inputs.int_array(0, "A_pos")?;
    let b_A_crd = inputs.int_array(1, "A_crd")?;
    let b_A_vals = inputs.float_array(0, "A_vals")?;
    let v_N = inputs.int(0, "N")?;
    let v_M = inputs.int(1, "M")?;
    let mut b_B_perm: Vec<i64>;
    let mut b_B_vals: Vec<f64>;
    let mut b_nz: Vec<i64>;
    let mut b_rperm: Vec<i64>;
    let mut v_K: i64;
    let mut v_d: i64;
    let mut v_i: i64;
    let mut v_j: i64;
    let mut v_k: i64;
    let mut v_p: i64;
    let mut v_pB1: i64;
    let mut v_pB2: i64;
    // fused remapping + analysis: mark nonzero diagonals
    b_nz = alloc(i64::max(v_N.wrapping_add(v_M).wrapping_sub(1_i64), 0_i64))?;
    for it in 0_i64..v_M {
        v_j = it;
        for it in (ld(b_A_pos, v_j, "A_pos")? as i64)..(ld(b_A_pos, v_j.wrapping_add(1_i64), "A_pos")? as i64) {
            v_p = it;
            v_i = ld(b_A_crd, v_p, "A_crd")? as i64;
            v_k = v_j.wrapping_sub(v_i);
            update(v_k.wrapping_add(v_N.wrapping_sub(1_i64)), 1_i64, &mut b_nz, "nz", |_, v| v)?;
        }
    }
    // assembly: collect offsets (perm), build rperm, scatter values
    b_B_perm = alloc(i64::max(v_N.wrapping_add(v_M).wrapping_sub(1_i64), 0_i64))?;
    v_K = 0_i64;
    for it in 0_i64..i64::max(v_N.wrapping_add(v_M).wrapping_sub(1_i64), 0_i64) {
        v_d = it;
        if ld(&b_nz, v_d, "nz")? != 0_i64 {
            update(v_K, v_d.wrapping_sub(v_N.wrapping_sub(1_i64)), &mut b_B_perm, "B_perm", |_, v| v)?;
            v_K = v_K.wrapping_add(1_i64);
        }
    }
    b_rperm = alloc(i64::max(v_N.wrapping_add(v_M).wrapping_sub(1_i64), 0_i64))?;
    for it in 0_i64..v_K {
        v_d = it;
        update(ld(&b_B_perm, v_d, "B_perm")?.wrapping_add(v_N.wrapping_sub(1_i64)), v_d, &mut b_rperm, "rperm", |_, v| v)?;
    }
    b_B_vals = alloc(v_K.wrapping_mul(v_N))?;
    for it in 0_i64..v_M {
        v_j = it;
        for it in (ld(b_A_pos, v_j, "A_pos")? as i64)..(ld(b_A_pos, v_j.wrapping_add(1_i64), "A_pos")? as i64) {
            v_p = it;
            v_i = ld(b_A_crd, v_p, "A_crd")? as i64;
            v_k = v_j.wrapping_sub(v_i);
            v_pB1 = ld(&b_rperm, v_k.wrapping_add(v_N.wrapping_sub(1_i64)), "rperm")?;
            v_pB2 = v_pB1.wrapping_mul(v_N).wrapping_add(v_i);
            update(v_pB2, ld(b_A_vals, v_p, "A_vals")?, &mut b_B_vals, "B_vals", |_, v| v)?;
        }
    }
    Ok(Outputs {
        ints: vec!(("B_perm", b_B_perm)),
        floats: vec!(("B_vals", b_B_vals)),
        scalars: vec!(("K", v_K)),
    })
}

fn convert_csc_to_ell(inputs: &Inputs<'_>) -> Checked<Outputs> {
    let b_A_pos = inputs.int_array(0, "A_pos")?;
    let b_A_crd = inputs.int_array(1, "A_crd")?;
    let b_A_vals = inputs.float_array(0, "A_vals")?;
    let v_N = inputs.int(0, "N")?;
    let v_M = inputs.int(1, "M")?;
    let mut b_B_crd: Vec<i64>;
    let mut b_B_vals: Vec<f64>;
    let mut b_count: Vec<i64>;
    let mut b_counter: Vec<i64>;
    let mut v_K: i64;
    let mut v_c: i64;
    let mut v_i: i64;
    let mut v_j: i64;
    let mut v_p: i64;
    let mut v_pB: i64;
    let mut v_r: i64;
    // analysis: maximum number of nonzeros in any row
    b_count = alloc(v_N)?;
    for it in 0_i64..v_M {
        v_j = it;
        for it in (ld(b_A_pos, v_j, "A_pos")? as i64)..(ld(b_A_pos, v_j.wrapping_add(1_i64), "A_pos")? as i64) {
            v_p = it;
            v_i = ld(b_A_crd, v_p, "A_crd")? as i64;
            update(v_i, 1_i64, &mut b_count, "count", i64::wrapping_add)?;
        }
    }
    v_K = 0_i64;
    for it in 0_i64..v_N {
        v_r = it;
        v_K = i64::max(v_K, ld(&b_count, v_r, "count")?);
    }
    // assembly: scatter into K slices (calloc'd output)
    b_B_crd = alloc(v_K.wrapping_mul(v_N))?;
    b_B_vals = alloc(v_K.wrapping_mul(v_N))?;
    b_counter = alloc(v_N)?;
    for it in 0_i64..v_M {
        v_j = it;
        for it in (ld(b_A_pos, v_j, "A_pos")? as i64)..(ld(b_A_pos, v_j.wrapping_add(1_i64), "A_pos")? as i64) {
            v_p = it;
            v_i = ld(b_A_crd, v_p, "A_crd")? as i64;
            v_c = ld(&b_counter, v_i, "counter")?;
            update(v_i, 1_i64, &mut b_counter, "counter", i64::wrapping_add)?;
            v_pB = v_c.wrapping_mul(v_N).wrapping_add(v_i);
            update(v_pB, v_j, &mut b_B_crd, "B_crd", |_, v| v)?;
            update(v_pB, ld(b_A_vals, v_p, "A_vals")?, &mut b_B_vals, "B_vals", |_, v| v)?;
        }
    }
    Ok(Outputs {
        ints: vec!(("B_crd", b_B_crd)),
        floats: vec!(("B_vals", b_B_vals)),
        scalars: vec!(("K", v_K)),
    })
}

fn convert_coo3_to_coo3(inputs: &Inputs<'_>) -> Checked<Outputs> {
    let b_A1_crd = inputs.int_array(0, "A1_crd")?;
    let b_A2_crd = inputs.int_array(1, "A2_crd")?;
    let b_A3_crd = inputs.int_array(2, "A3_crd")?;
    let b_A_vals = inputs.float_array(0, "A_vals")?;
    let v_nnz = inputs.int(3, "nnz")?;
    let mut b_B1_crd: Vec<i64>;
    let mut b_B2_crd: Vec<i64>;
    let mut b_B3_crd: Vec<i64>;
    let mut b_B_vals: Vec<f64>;
    let mut v_i: i64;
    let mut v_j: i64;
    let mut v_k: i64;
    let mut v_p: i64;
    let mut v_q: i64;
    // assembly: append nonzeros in source order
    b_B1_crd = alloc(v_nnz)?;
    b_B2_crd = alloc(v_nnz)?;
    b_B3_crd = alloc(v_nnz)?;
    b_B_vals = alloc(v_nnz)?;
    v_q = 0_i64;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_i = ld(b_A1_crd, v_p, "A1_crd")? as i64;
        v_j = ld(b_A2_crd, v_p, "A2_crd")? as i64;
        v_k = ld(b_A3_crd, v_p, "A3_crd")? as i64;
        update(v_q, v_i, &mut b_B1_crd, "B1_crd", |_, v| v)?;
        update(v_q, v_j, &mut b_B2_crd, "B2_crd", |_, v| v)?;
        update(v_q, v_k, &mut b_B3_crd, "B3_crd", |_, v| v)?;
        update(v_q, ld(b_A_vals, v_p, "A_vals")?, &mut b_B_vals, "B_vals", |_, v| v)?;
        v_q = v_q.wrapping_add(1_i64);
    }
    Ok(Outputs {
        ints: vec!(("B1_crd", b_B1_crd), ("B2_crd", b_B2_crd), ("B3_crd", b_B3_crd)),
        floats: vec!(("B_vals", b_B_vals)),
        scalars: vec!(),
    })
}

fn convert_coo3_to_csf(inputs: &Inputs<'_>) -> Checked<Outputs> {
    let b_A1_crd = inputs.int_array(0, "A1_crd")?;
    let b_A2_crd = inputs.int_array(1, "A2_crd")?;
    let b_A3_crd = inputs.int_array(2, "A3_crd")?;
    let b_A_vals = inputs.float_array(0, "A_vals")?;
    let v_N = inputs.int(0, "N")?;
    let v_M = inputs.int(1, "M")?;
    let v_L = inputs.int(2, "L")?;
    let v_nnz = inputs.int(3, "nnz")?;
    let mut b_B1_crd: Vec<i64>;
    let mut b_B2_crd: Vec<i64>;
    let mut b_B2_pos: Vec<i64>;
    let mut b_B3_crd: Vec<i64>;
    let mut b_B3_pos: Vec<i64>;
    let mut b_B_vals: Vec<f64>;
    let mut b_cnt1: Vec<i64>;
    let mut b_cnt2: Vec<i64>;
    let mut b_cnt3: Vec<i64>;
    let mut b_s_i: Vec<i64>;
    let mut b_s_j: Vec<i64>;
    let mut b_s_k: Vec<i64>;
    let mut b_s_v: Vec<f64>;
    let mut b_t1_i: Vec<i64>;
    let mut b_t1_j: Vec<i64>;
    let mut b_t1_k: Vec<i64>;
    let mut b_t1_v: Vec<f64>;
    let mut b_t2_i: Vec<i64>;
    let mut b_t2_j: Vec<i64>;
    let mut b_t2_k: Vec<i64>;
    let mut b_t2_v: Vec<f64>;
    let mut v_d: i64;
    let mut v_i: i64;
    let mut v_j: i64;
    let mut v_p: i64;
    let mut v_prev_i: i64;
    let mut v_prev_j: i64;
    let mut v_q1: i64;
    let mut v_q2: i64;
    let mut v_r: i64;
    // sort: LSD radix over (k, j, i) = stable lexicographic order
    // stable counting sort by A3_crd (L buckets)
    b_cnt1 = alloc(v_L.wrapping_add(1_i64))?;
    for it in 0_i64..v_nnz {
        v_p = it;
        update((ld(b_A3_crd, v_p, "A3_crd")? as i64).wrapping_add(1_i64), 1_i64, &mut b_cnt1, "cnt1", i64::wrapping_add)?;
    }
    for it in 0_i64..v_L {
        v_r = it;
        update(v_r.wrapping_add(1_i64), ld(&b_cnt1, v_r.wrapping_add(1_i64), "cnt1")?.wrapping_add(ld(&b_cnt1, v_r, "cnt1")?), &mut b_cnt1, "cnt1", |_, v| v)?;
    }
    b_t1_i = alloc(v_nnz)?;
    b_t1_j = alloc(v_nnz)?;
    b_t1_k = alloc(v_nnz)?;
    b_t1_v = alloc(v_nnz)?;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_d = ld(&b_cnt1, ld(b_A3_crd, v_p, "A3_crd")? as i64, "cnt1")?;
        update(ld(b_A3_crd, v_p, "A3_crd")? as i64, 1_i64, &mut b_cnt1, "cnt1", i64::wrapping_add)?;
        update(v_d, ld(b_A1_crd, v_p, "A1_crd")? as i64, &mut b_t1_i, "t1_i", |_, v| v)?;
        update(v_d, ld(b_A2_crd, v_p, "A2_crd")? as i64, &mut b_t1_j, "t1_j", |_, v| v)?;
        update(v_d, ld(b_A3_crd, v_p, "A3_crd")? as i64, &mut b_t1_k, "t1_k", |_, v| v)?;
        update(v_d, ld(b_A_vals, v_p, "A_vals")?, &mut b_t1_v, "t1_v", |_, v| v)?;
    }
    // stable counting sort by t1_j (M buckets)
    b_cnt2 = alloc(v_M.wrapping_add(1_i64))?;
    for it in 0_i64..v_nnz {
        v_p = it;
        update(ld(&b_t1_j, v_p, "t1_j")?.wrapping_add(1_i64), 1_i64, &mut b_cnt2, "cnt2", i64::wrapping_add)?;
    }
    for it in 0_i64..v_M {
        v_r = it;
        update(v_r.wrapping_add(1_i64), ld(&b_cnt2, v_r.wrapping_add(1_i64), "cnt2")?.wrapping_add(ld(&b_cnt2, v_r, "cnt2")?), &mut b_cnt2, "cnt2", |_, v| v)?;
    }
    b_t2_i = alloc(v_nnz)?;
    b_t2_j = alloc(v_nnz)?;
    b_t2_k = alloc(v_nnz)?;
    b_t2_v = alloc(v_nnz)?;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_d = ld(&b_cnt2, ld(&b_t1_j, v_p, "t1_j")?, "cnt2")?;
        update(ld(&b_t1_j, v_p, "t1_j")?, 1_i64, &mut b_cnt2, "cnt2", i64::wrapping_add)?;
        update(v_d, ld(&b_t1_i, v_p, "t1_i")?, &mut b_t2_i, "t2_i", |_, v| v)?;
        update(v_d, ld(&b_t1_j, v_p, "t1_j")?, &mut b_t2_j, "t2_j", |_, v| v)?;
        update(v_d, ld(&b_t1_k, v_p, "t1_k")?, &mut b_t2_k, "t2_k", |_, v| v)?;
        update(v_d, ld(&b_t1_v, v_p, "t1_v")?, &mut b_t2_v, "t2_v", |_, v| v)?;
    }
    // stable counting sort by t2_i (N buckets)
    b_cnt3 = alloc(v_N.wrapping_add(1_i64))?;
    for it in 0_i64..v_nnz {
        v_p = it;
        update(ld(&b_t2_i, v_p, "t2_i")?.wrapping_add(1_i64), 1_i64, &mut b_cnt3, "cnt3", i64::wrapping_add)?;
    }
    for it in 0_i64..v_N {
        v_r = it;
        update(v_r.wrapping_add(1_i64), ld(&b_cnt3, v_r.wrapping_add(1_i64), "cnt3")?.wrapping_add(ld(&b_cnt3, v_r, "cnt3")?), &mut b_cnt3, "cnt3", |_, v| v)?;
    }
    b_s_i = alloc(v_nnz)?;
    b_s_j = alloc(v_nnz)?;
    b_s_k = alloc(v_nnz)?;
    b_s_v = alloc(v_nnz)?;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_d = ld(&b_cnt3, ld(&b_t2_i, v_p, "t2_i")?, "cnt3")?;
        update(ld(&b_t2_i, v_p, "t2_i")?, 1_i64, &mut b_cnt3, "cnt3", i64::wrapping_add)?;
        update(v_d, ld(&b_t2_i, v_p, "t2_i")?, &mut b_s_i, "s_i", |_, v| v)?;
        update(v_d, ld(&b_t2_j, v_p, "t2_j")?, &mut b_s_j, "s_j", |_, v| v)?;
        update(v_d, ld(&b_t2_k, v_p, "t2_k")?, &mut b_s_k, "s_k", |_, v| v)?;
        update(v_d, ld(&b_t2_v, v_p, "t2_v")?, &mut b_s_v, "s_v", |_, v| v)?;
    }
    // pack: append fibers where a coordinate prefix changes
    b_B1_crd = alloc(v_nnz)?;
    b_B2_pos = alloc(v_nnz.wrapping_add(1_i64))?;
    b_B2_crd = alloc(v_nnz)?;
    b_B3_pos = alloc(v_nnz.wrapping_add(1_i64))?;
    b_B3_crd = alloc(v_nnz)?;
    b_B_vals = alloc(v_nnz)?;
    v_q1 = 0_i64;
    v_q2 = 0_i64;
    v_prev_i = -1_i64;
    v_prev_j = -1_i64;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_i = ld(&b_s_i, v_p, "s_i")?;
        v_j = ld(&b_s_j, v_p, "s_j")?;
        if v_i != v_prev_i {
            update(v_q1, v_i, &mut b_B1_crd, "B1_crd", |_, v| v)?;
            v_q1 = v_q1.wrapping_add(1_i64);
            v_prev_i = v_i;
            v_prev_j = -1_i64;
        }
        if v_j != v_prev_j {
            update(v_q2, v_j, &mut b_B2_crd, "B2_crd", |_, v| v)?;
            v_q2 = v_q2.wrapping_add(1_i64);
            update(v_q1, v_q2, &mut b_B2_pos, "B2_pos", |_, v| v)?;
            v_prev_j = v_j;
        }
        update(v_p, ld(&b_s_k, v_p, "s_k")?, &mut b_B3_crd, "B3_crd", |_, v| v)?;
        update(v_p, ld(&b_s_v, v_p, "s_v")?, &mut b_B_vals, "B_vals", |_, v| v)?;
        update(v_q2, v_p.wrapping_add(1_i64), &mut b_B3_pos, "B3_pos", |_, v| v)?;
    }
    Ok(Outputs {
        ints: vec!(("B1_crd", b_B1_crd), ("B2_pos", b_B2_pos), ("B2_crd", b_B2_crd), ("B3_pos", b_B3_pos), ("B3_crd", b_B3_crd)),
        floats: vec!(("B_vals", b_B_vals)),
        scalars: vec!(("q1", v_q1), ("q2", v_q2)),
    })
}

fn convert_coo3_to_csf_021(inputs: &Inputs<'_>) -> Checked<Outputs> {
    let b_A1_crd = inputs.int_array(0, "A1_crd")?;
    let b_A2_crd = inputs.int_array(1, "A2_crd")?;
    let b_A3_crd = inputs.int_array(2, "A3_crd")?;
    let b_A_vals = inputs.float_array(0, "A_vals")?;
    let v_N = inputs.int(0, "N")?;
    let v_M = inputs.int(1, "M")?;
    let v_L = inputs.int(2, "L")?;
    let v_nnz = inputs.int(3, "nnz")?;
    let mut b_B1_crd: Vec<i64>;
    let mut b_B2_crd: Vec<i64>;
    let mut b_B2_pos: Vec<i64>;
    let mut b_B3_crd: Vec<i64>;
    let mut b_B3_pos: Vec<i64>;
    let mut b_B_vals: Vec<f64>;
    let mut b_cnt1: Vec<i64>;
    let mut b_cnt2: Vec<i64>;
    let mut b_cnt3: Vec<i64>;
    let mut b_s_i: Vec<i64>;
    let mut b_s_j: Vec<i64>;
    let mut b_s_k: Vec<i64>;
    let mut b_s_v: Vec<f64>;
    let mut b_t1_i: Vec<i64>;
    let mut b_t1_j: Vec<i64>;
    let mut b_t1_k: Vec<i64>;
    let mut b_t1_v: Vec<f64>;
    let mut b_t2_i: Vec<i64>;
    let mut b_t2_j: Vec<i64>;
    let mut b_t2_k: Vec<i64>;
    let mut b_t2_v: Vec<f64>;
    let mut v_d: i64;
    let mut v_i: i64;
    let mut v_j: i64;
    let mut v_p: i64;
    let mut v_prev_i: i64;
    let mut v_prev_j: i64;
    let mut v_q1: i64;
    let mut v_q2: i64;
    let mut v_r: i64;
    // sort: LSD radix over (j, k, i) = stable lexicographic order
    // stable counting sort by A2_crd (M buckets)
    b_cnt1 = alloc(v_M.wrapping_add(1_i64))?;
    for it in 0_i64..v_nnz {
        v_p = it;
        update((ld(b_A2_crd, v_p, "A2_crd")? as i64).wrapping_add(1_i64), 1_i64, &mut b_cnt1, "cnt1", i64::wrapping_add)?;
    }
    for it in 0_i64..v_M {
        v_r = it;
        update(v_r.wrapping_add(1_i64), ld(&b_cnt1, v_r.wrapping_add(1_i64), "cnt1")?.wrapping_add(ld(&b_cnt1, v_r, "cnt1")?), &mut b_cnt1, "cnt1", |_, v| v)?;
    }
    b_t1_i = alloc(v_nnz)?;
    b_t1_j = alloc(v_nnz)?;
    b_t1_k = alloc(v_nnz)?;
    b_t1_v = alloc(v_nnz)?;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_d = ld(&b_cnt1, ld(b_A2_crd, v_p, "A2_crd")? as i64, "cnt1")?;
        update(ld(b_A2_crd, v_p, "A2_crd")? as i64, 1_i64, &mut b_cnt1, "cnt1", i64::wrapping_add)?;
        update(v_d, ld(b_A1_crd, v_p, "A1_crd")? as i64, &mut b_t1_i, "t1_i", |_, v| v)?;
        update(v_d, ld(b_A2_crd, v_p, "A2_crd")? as i64, &mut b_t1_j, "t1_j", |_, v| v)?;
        update(v_d, ld(b_A3_crd, v_p, "A3_crd")? as i64, &mut b_t1_k, "t1_k", |_, v| v)?;
        update(v_d, ld(b_A_vals, v_p, "A_vals")?, &mut b_t1_v, "t1_v", |_, v| v)?;
    }
    // stable counting sort by t1_k (L buckets)
    b_cnt2 = alloc(v_L.wrapping_add(1_i64))?;
    for it in 0_i64..v_nnz {
        v_p = it;
        update(ld(&b_t1_k, v_p, "t1_k")?.wrapping_add(1_i64), 1_i64, &mut b_cnt2, "cnt2", i64::wrapping_add)?;
    }
    for it in 0_i64..v_L {
        v_r = it;
        update(v_r.wrapping_add(1_i64), ld(&b_cnt2, v_r.wrapping_add(1_i64), "cnt2")?.wrapping_add(ld(&b_cnt2, v_r, "cnt2")?), &mut b_cnt2, "cnt2", |_, v| v)?;
    }
    b_t2_i = alloc(v_nnz)?;
    b_t2_j = alloc(v_nnz)?;
    b_t2_k = alloc(v_nnz)?;
    b_t2_v = alloc(v_nnz)?;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_d = ld(&b_cnt2, ld(&b_t1_k, v_p, "t1_k")?, "cnt2")?;
        update(ld(&b_t1_k, v_p, "t1_k")?, 1_i64, &mut b_cnt2, "cnt2", i64::wrapping_add)?;
        update(v_d, ld(&b_t1_i, v_p, "t1_i")?, &mut b_t2_i, "t2_i", |_, v| v)?;
        update(v_d, ld(&b_t1_j, v_p, "t1_j")?, &mut b_t2_j, "t2_j", |_, v| v)?;
        update(v_d, ld(&b_t1_k, v_p, "t1_k")?, &mut b_t2_k, "t2_k", |_, v| v)?;
        update(v_d, ld(&b_t1_v, v_p, "t1_v")?, &mut b_t2_v, "t2_v", |_, v| v)?;
    }
    // stable counting sort by t2_i (N buckets)
    b_cnt3 = alloc(v_N.wrapping_add(1_i64))?;
    for it in 0_i64..v_nnz {
        v_p = it;
        update(ld(&b_t2_i, v_p, "t2_i")?.wrapping_add(1_i64), 1_i64, &mut b_cnt3, "cnt3", i64::wrapping_add)?;
    }
    for it in 0_i64..v_N {
        v_r = it;
        update(v_r.wrapping_add(1_i64), ld(&b_cnt3, v_r.wrapping_add(1_i64), "cnt3")?.wrapping_add(ld(&b_cnt3, v_r, "cnt3")?), &mut b_cnt3, "cnt3", |_, v| v)?;
    }
    b_s_i = alloc(v_nnz)?;
    b_s_j = alloc(v_nnz)?;
    b_s_k = alloc(v_nnz)?;
    b_s_v = alloc(v_nnz)?;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_d = ld(&b_cnt3, ld(&b_t2_i, v_p, "t2_i")?, "cnt3")?;
        update(ld(&b_t2_i, v_p, "t2_i")?, 1_i64, &mut b_cnt3, "cnt3", i64::wrapping_add)?;
        update(v_d, ld(&b_t2_i, v_p, "t2_i")?, &mut b_s_i, "s_i", |_, v| v)?;
        update(v_d, ld(&b_t2_j, v_p, "t2_j")?, &mut b_s_j, "s_j", |_, v| v)?;
        update(v_d, ld(&b_t2_k, v_p, "t2_k")?, &mut b_s_k, "s_k", |_, v| v)?;
        update(v_d, ld(&b_t2_v, v_p, "t2_v")?, &mut b_s_v, "s_v", |_, v| v)?;
    }
    // pack: append fibers where a coordinate prefix changes
    b_B1_crd = alloc(v_nnz)?;
    b_B2_pos = alloc(v_nnz.wrapping_add(1_i64))?;
    b_B2_crd = alloc(v_nnz)?;
    b_B3_pos = alloc(v_nnz.wrapping_add(1_i64))?;
    b_B3_crd = alloc(v_nnz)?;
    b_B_vals = alloc(v_nnz)?;
    v_q1 = 0_i64;
    v_q2 = 0_i64;
    v_prev_i = -1_i64;
    v_prev_j = -1_i64;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_i = ld(&b_s_i, v_p, "s_i")?;
        v_j = ld(&b_s_k, v_p, "s_k")?;
        if v_i != v_prev_i {
            update(v_q1, v_i, &mut b_B1_crd, "B1_crd", |_, v| v)?;
            v_q1 = v_q1.wrapping_add(1_i64);
            v_prev_i = v_i;
            v_prev_j = -1_i64;
        }
        if v_j != v_prev_j {
            update(v_q2, v_j, &mut b_B2_crd, "B2_crd", |_, v| v)?;
            v_q2 = v_q2.wrapping_add(1_i64);
            update(v_q1, v_q2, &mut b_B2_pos, "B2_pos", |_, v| v)?;
            v_prev_j = v_j;
        }
        update(v_p, ld(&b_s_j, v_p, "s_j")?, &mut b_B3_crd, "B3_crd", |_, v| v)?;
        update(v_p, ld(&b_s_v, v_p, "s_v")?, &mut b_B_vals, "B_vals", |_, v| v)?;
        update(v_q2, v_p.wrapping_add(1_i64), &mut b_B3_pos, "B3_pos", |_, v| v)?;
    }
    Ok(Outputs {
        ints: vec!(("B1_crd", b_B1_crd), ("B2_pos", b_B2_pos), ("B2_crd", b_B2_crd), ("B3_pos", b_B3_pos), ("B3_crd", b_B3_crd)),
        floats: vec!(("B_vals", b_B_vals)),
        scalars: vec!(("q1", v_q1), ("q2", v_q2)),
    })
}

fn convert_coo3_to_csf_102(inputs: &Inputs<'_>) -> Checked<Outputs> {
    let b_A1_crd = inputs.int_array(0, "A1_crd")?;
    let b_A2_crd = inputs.int_array(1, "A2_crd")?;
    let b_A3_crd = inputs.int_array(2, "A3_crd")?;
    let b_A_vals = inputs.float_array(0, "A_vals")?;
    let v_N = inputs.int(0, "N")?;
    let v_M = inputs.int(1, "M")?;
    let v_L = inputs.int(2, "L")?;
    let v_nnz = inputs.int(3, "nnz")?;
    let mut b_B1_crd: Vec<i64>;
    let mut b_B2_crd: Vec<i64>;
    let mut b_B2_pos: Vec<i64>;
    let mut b_B3_crd: Vec<i64>;
    let mut b_B3_pos: Vec<i64>;
    let mut b_B_vals: Vec<f64>;
    let mut b_cnt1: Vec<i64>;
    let mut b_cnt2: Vec<i64>;
    let mut b_cnt3: Vec<i64>;
    let mut b_s_i: Vec<i64>;
    let mut b_s_j: Vec<i64>;
    let mut b_s_k: Vec<i64>;
    let mut b_s_v: Vec<f64>;
    let mut b_t1_i: Vec<i64>;
    let mut b_t1_j: Vec<i64>;
    let mut b_t1_k: Vec<i64>;
    let mut b_t1_v: Vec<f64>;
    let mut b_t2_i: Vec<i64>;
    let mut b_t2_j: Vec<i64>;
    let mut b_t2_k: Vec<i64>;
    let mut b_t2_v: Vec<f64>;
    let mut v_d: i64;
    let mut v_i: i64;
    let mut v_j: i64;
    let mut v_p: i64;
    let mut v_prev_i: i64;
    let mut v_prev_j: i64;
    let mut v_q1: i64;
    let mut v_q2: i64;
    let mut v_r: i64;
    // sort: LSD radix over (k, i, j) = stable lexicographic order
    // stable counting sort by A3_crd (L buckets)
    b_cnt1 = alloc(v_L.wrapping_add(1_i64))?;
    for it in 0_i64..v_nnz {
        v_p = it;
        update((ld(b_A3_crd, v_p, "A3_crd")? as i64).wrapping_add(1_i64), 1_i64, &mut b_cnt1, "cnt1", i64::wrapping_add)?;
    }
    for it in 0_i64..v_L {
        v_r = it;
        update(v_r.wrapping_add(1_i64), ld(&b_cnt1, v_r.wrapping_add(1_i64), "cnt1")?.wrapping_add(ld(&b_cnt1, v_r, "cnt1")?), &mut b_cnt1, "cnt1", |_, v| v)?;
    }
    b_t1_i = alloc(v_nnz)?;
    b_t1_j = alloc(v_nnz)?;
    b_t1_k = alloc(v_nnz)?;
    b_t1_v = alloc(v_nnz)?;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_d = ld(&b_cnt1, ld(b_A3_crd, v_p, "A3_crd")? as i64, "cnt1")?;
        update(ld(b_A3_crd, v_p, "A3_crd")? as i64, 1_i64, &mut b_cnt1, "cnt1", i64::wrapping_add)?;
        update(v_d, ld(b_A1_crd, v_p, "A1_crd")? as i64, &mut b_t1_i, "t1_i", |_, v| v)?;
        update(v_d, ld(b_A2_crd, v_p, "A2_crd")? as i64, &mut b_t1_j, "t1_j", |_, v| v)?;
        update(v_d, ld(b_A3_crd, v_p, "A3_crd")? as i64, &mut b_t1_k, "t1_k", |_, v| v)?;
        update(v_d, ld(b_A_vals, v_p, "A_vals")?, &mut b_t1_v, "t1_v", |_, v| v)?;
    }
    // stable counting sort by t1_i (N buckets)
    b_cnt2 = alloc(v_N.wrapping_add(1_i64))?;
    for it in 0_i64..v_nnz {
        v_p = it;
        update(ld(&b_t1_i, v_p, "t1_i")?.wrapping_add(1_i64), 1_i64, &mut b_cnt2, "cnt2", i64::wrapping_add)?;
    }
    for it in 0_i64..v_N {
        v_r = it;
        update(v_r.wrapping_add(1_i64), ld(&b_cnt2, v_r.wrapping_add(1_i64), "cnt2")?.wrapping_add(ld(&b_cnt2, v_r, "cnt2")?), &mut b_cnt2, "cnt2", |_, v| v)?;
    }
    b_t2_i = alloc(v_nnz)?;
    b_t2_j = alloc(v_nnz)?;
    b_t2_k = alloc(v_nnz)?;
    b_t2_v = alloc(v_nnz)?;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_d = ld(&b_cnt2, ld(&b_t1_i, v_p, "t1_i")?, "cnt2")?;
        update(ld(&b_t1_i, v_p, "t1_i")?, 1_i64, &mut b_cnt2, "cnt2", i64::wrapping_add)?;
        update(v_d, ld(&b_t1_i, v_p, "t1_i")?, &mut b_t2_i, "t2_i", |_, v| v)?;
        update(v_d, ld(&b_t1_j, v_p, "t1_j")?, &mut b_t2_j, "t2_j", |_, v| v)?;
        update(v_d, ld(&b_t1_k, v_p, "t1_k")?, &mut b_t2_k, "t2_k", |_, v| v)?;
        update(v_d, ld(&b_t1_v, v_p, "t1_v")?, &mut b_t2_v, "t2_v", |_, v| v)?;
    }
    // stable counting sort by t2_j (M buckets)
    b_cnt3 = alloc(v_M.wrapping_add(1_i64))?;
    for it in 0_i64..v_nnz {
        v_p = it;
        update(ld(&b_t2_j, v_p, "t2_j")?.wrapping_add(1_i64), 1_i64, &mut b_cnt3, "cnt3", i64::wrapping_add)?;
    }
    for it in 0_i64..v_M {
        v_r = it;
        update(v_r.wrapping_add(1_i64), ld(&b_cnt3, v_r.wrapping_add(1_i64), "cnt3")?.wrapping_add(ld(&b_cnt3, v_r, "cnt3")?), &mut b_cnt3, "cnt3", |_, v| v)?;
    }
    b_s_i = alloc(v_nnz)?;
    b_s_j = alloc(v_nnz)?;
    b_s_k = alloc(v_nnz)?;
    b_s_v = alloc(v_nnz)?;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_d = ld(&b_cnt3, ld(&b_t2_j, v_p, "t2_j")?, "cnt3")?;
        update(ld(&b_t2_j, v_p, "t2_j")?, 1_i64, &mut b_cnt3, "cnt3", i64::wrapping_add)?;
        update(v_d, ld(&b_t2_i, v_p, "t2_i")?, &mut b_s_i, "s_i", |_, v| v)?;
        update(v_d, ld(&b_t2_j, v_p, "t2_j")?, &mut b_s_j, "s_j", |_, v| v)?;
        update(v_d, ld(&b_t2_k, v_p, "t2_k")?, &mut b_s_k, "s_k", |_, v| v)?;
        update(v_d, ld(&b_t2_v, v_p, "t2_v")?, &mut b_s_v, "s_v", |_, v| v)?;
    }
    // pack: append fibers where a coordinate prefix changes
    b_B1_crd = alloc(v_nnz)?;
    b_B2_pos = alloc(v_nnz.wrapping_add(1_i64))?;
    b_B2_crd = alloc(v_nnz)?;
    b_B3_pos = alloc(v_nnz.wrapping_add(1_i64))?;
    b_B3_crd = alloc(v_nnz)?;
    b_B_vals = alloc(v_nnz)?;
    v_q1 = 0_i64;
    v_q2 = 0_i64;
    v_prev_i = -1_i64;
    v_prev_j = -1_i64;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_i = ld(&b_s_j, v_p, "s_j")?;
        v_j = ld(&b_s_i, v_p, "s_i")?;
        if v_i != v_prev_i {
            update(v_q1, v_i, &mut b_B1_crd, "B1_crd", |_, v| v)?;
            v_q1 = v_q1.wrapping_add(1_i64);
            v_prev_i = v_i;
            v_prev_j = -1_i64;
        }
        if v_j != v_prev_j {
            update(v_q2, v_j, &mut b_B2_crd, "B2_crd", |_, v| v)?;
            v_q2 = v_q2.wrapping_add(1_i64);
            update(v_q1, v_q2, &mut b_B2_pos, "B2_pos", |_, v| v)?;
            v_prev_j = v_j;
        }
        update(v_p, ld(&b_s_k, v_p, "s_k")?, &mut b_B3_crd, "B3_crd", |_, v| v)?;
        update(v_p, ld(&b_s_v, v_p, "s_v")?, &mut b_B_vals, "B_vals", |_, v| v)?;
        update(v_q2, v_p.wrapping_add(1_i64), &mut b_B3_pos, "B3_pos", |_, v| v)?;
    }
    Ok(Outputs {
        ints: vec!(("B1_crd", b_B1_crd), ("B2_pos", b_B2_pos), ("B2_crd", b_B2_crd), ("B3_pos", b_B3_pos), ("B3_crd", b_B3_crd)),
        floats: vec!(("B_vals", b_B_vals)),
        scalars: vec!(("q1", v_q1), ("q2", v_q2)),
    })
}

fn convert_coo3_to_csf_120(inputs: &Inputs<'_>) -> Checked<Outputs> {
    let b_A1_crd = inputs.int_array(0, "A1_crd")?;
    let b_A2_crd = inputs.int_array(1, "A2_crd")?;
    let b_A3_crd = inputs.int_array(2, "A3_crd")?;
    let b_A_vals = inputs.float_array(0, "A_vals")?;
    let v_N = inputs.int(0, "N")?;
    let v_M = inputs.int(1, "M")?;
    let v_L = inputs.int(2, "L")?;
    let v_nnz = inputs.int(3, "nnz")?;
    let mut b_B1_crd: Vec<i64>;
    let mut b_B2_crd: Vec<i64>;
    let mut b_B2_pos: Vec<i64>;
    let mut b_B3_crd: Vec<i64>;
    let mut b_B3_pos: Vec<i64>;
    let mut b_B_vals: Vec<f64>;
    let mut b_cnt1: Vec<i64>;
    let mut b_cnt2: Vec<i64>;
    let mut b_cnt3: Vec<i64>;
    let mut b_s_i: Vec<i64>;
    let mut b_s_j: Vec<i64>;
    let mut b_s_k: Vec<i64>;
    let mut b_s_v: Vec<f64>;
    let mut b_t1_i: Vec<i64>;
    let mut b_t1_j: Vec<i64>;
    let mut b_t1_k: Vec<i64>;
    let mut b_t1_v: Vec<f64>;
    let mut b_t2_i: Vec<i64>;
    let mut b_t2_j: Vec<i64>;
    let mut b_t2_k: Vec<i64>;
    let mut b_t2_v: Vec<f64>;
    let mut v_d: i64;
    let mut v_i: i64;
    let mut v_j: i64;
    let mut v_p: i64;
    let mut v_prev_i: i64;
    let mut v_prev_j: i64;
    let mut v_q1: i64;
    let mut v_q2: i64;
    let mut v_r: i64;
    // sort: LSD radix over (i, k, j) = stable lexicographic order
    // stable counting sort by A1_crd (N buckets)
    b_cnt1 = alloc(v_N.wrapping_add(1_i64))?;
    for it in 0_i64..v_nnz {
        v_p = it;
        update((ld(b_A1_crd, v_p, "A1_crd")? as i64).wrapping_add(1_i64), 1_i64, &mut b_cnt1, "cnt1", i64::wrapping_add)?;
    }
    for it in 0_i64..v_N {
        v_r = it;
        update(v_r.wrapping_add(1_i64), ld(&b_cnt1, v_r.wrapping_add(1_i64), "cnt1")?.wrapping_add(ld(&b_cnt1, v_r, "cnt1")?), &mut b_cnt1, "cnt1", |_, v| v)?;
    }
    b_t1_i = alloc(v_nnz)?;
    b_t1_j = alloc(v_nnz)?;
    b_t1_k = alloc(v_nnz)?;
    b_t1_v = alloc(v_nnz)?;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_d = ld(&b_cnt1, ld(b_A1_crd, v_p, "A1_crd")? as i64, "cnt1")?;
        update(ld(b_A1_crd, v_p, "A1_crd")? as i64, 1_i64, &mut b_cnt1, "cnt1", i64::wrapping_add)?;
        update(v_d, ld(b_A1_crd, v_p, "A1_crd")? as i64, &mut b_t1_i, "t1_i", |_, v| v)?;
        update(v_d, ld(b_A2_crd, v_p, "A2_crd")? as i64, &mut b_t1_j, "t1_j", |_, v| v)?;
        update(v_d, ld(b_A3_crd, v_p, "A3_crd")? as i64, &mut b_t1_k, "t1_k", |_, v| v)?;
        update(v_d, ld(b_A_vals, v_p, "A_vals")?, &mut b_t1_v, "t1_v", |_, v| v)?;
    }
    // stable counting sort by t1_k (L buckets)
    b_cnt2 = alloc(v_L.wrapping_add(1_i64))?;
    for it in 0_i64..v_nnz {
        v_p = it;
        update(ld(&b_t1_k, v_p, "t1_k")?.wrapping_add(1_i64), 1_i64, &mut b_cnt2, "cnt2", i64::wrapping_add)?;
    }
    for it in 0_i64..v_L {
        v_r = it;
        update(v_r.wrapping_add(1_i64), ld(&b_cnt2, v_r.wrapping_add(1_i64), "cnt2")?.wrapping_add(ld(&b_cnt2, v_r, "cnt2")?), &mut b_cnt2, "cnt2", |_, v| v)?;
    }
    b_t2_i = alloc(v_nnz)?;
    b_t2_j = alloc(v_nnz)?;
    b_t2_k = alloc(v_nnz)?;
    b_t2_v = alloc(v_nnz)?;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_d = ld(&b_cnt2, ld(&b_t1_k, v_p, "t1_k")?, "cnt2")?;
        update(ld(&b_t1_k, v_p, "t1_k")?, 1_i64, &mut b_cnt2, "cnt2", i64::wrapping_add)?;
        update(v_d, ld(&b_t1_i, v_p, "t1_i")?, &mut b_t2_i, "t2_i", |_, v| v)?;
        update(v_d, ld(&b_t1_j, v_p, "t1_j")?, &mut b_t2_j, "t2_j", |_, v| v)?;
        update(v_d, ld(&b_t1_k, v_p, "t1_k")?, &mut b_t2_k, "t2_k", |_, v| v)?;
        update(v_d, ld(&b_t1_v, v_p, "t1_v")?, &mut b_t2_v, "t2_v", |_, v| v)?;
    }
    // stable counting sort by t2_j (M buckets)
    b_cnt3 = alloc(v_M.wrapping_add(1_i64))?;
    for it in 0_i64..v_nnz {
        v_p = it;
        update(ld(&b_t2_j, v_p, "t2_j")?.wrapping_add(1_i64), 1_i64, &mut b_cnt3, "cnt3", i64::wrapping_add)?;
    }
    for it in 0_i64..v_M {
        v_r = it;
        update(v_r.wrapping_add(1_i64), ld(&b_cnt3, v_r.wrapping_add(1_i64), "cnt3")?.wrapping_add(ld(&b_cnt3, v_r, "cnt3")?), &mut b_cnt3, "cnt3", |_, v| v)?;
    }
    b_s_i = alloc(v_nnz)?;
    b_s_j = alloc(v_nnz)?;
    b_s_k = alloc(v_nnz)?;
    b_s_v = alloc(v_nnz)?;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_d = ld(&b_cnt3, ld(&b_t2_j, v_p, "t2_j")?, "cnt3")?;
        update(ld(&b_t2_j, v_p, "t2_j")?, 1_i64, &mut b_cnt3, "cnt3", i64::wrapping_add)?;
        update(v_d, ld(&b_t2_i, v_p, "t2_i")?, &mut b_s_i, "s_i", |_, v| v)?;
        update(v_d, ld(&b_t2_j, v_p, "t2_j")?, &mut b_s_j, "s_j", |_, v| v)?;
        update(v_d, ld(&b_t2_k, v_p, "t2_k")?, &mut b_s_k, "s_k", |_, v| v)?;
        update(v_d, ld(&b_t2_v, v_p, "t2_v")?, &mut b_s_v, "s_v", |_, v| v)?;
    }
    // pack: append fibers where a coordinate prefix changes
    b_B1_crd = alloc(v_nnz)?;
    b_B2_pos = alloc(v_nnz.wrapping_add(1_i64))?;
    b_B2_crd = alloc(v_nnz)?;
    b_B3_pos = alloc(v_nnz.wrapping_add(1_i64))?;
    b_B3_crd = alloc(v_nnz)?;
    b_B_vals = alloc(v_nnz)?;
    v_q1 = 0_i64;
    v_q2 = 0_i64;
    v_prev_i = -1_i64;
    v_prev_j = -1_i64;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_i = ld(&b_s_j, v_p, "s_j")?;
        v_j = ld(&b_s_k, v_p, "s_k")?;
        if v_i != v_prev_i {
            update(v_q1, v_i, &mut b_B1_crd, "B1_crd", |_, v| v)?;
            v_q1 = v_q1.wrapping_add(1_i64);
            v_prev_i = v_i;
            v_prev_j = -1_i64;
        }
        if v_j != v_prev_j {
            update(v_q2, v_j, &mut b_B2_crd, "B2_crd", |_, v| v)?;
            v_q2 = v_q2.wrapping_add(1_i64);
            update(v_q1, v_q2, &mut b_B2_pos, "B2_pos", |_, v| v)?;
            v_prev_j = v_j;
        }
        update(v_p, ld(&b_s_i, v_p, "s_i")?, &mut b_B3_crd, "B3_crd", |_, v| v)?;
        update(v_p, ld(&b_s_v, v_p, "s_v")?, &mut b_B_vals, "B_vals", |_, v| v)?;
        update(v_q2, v_p.wrapping_add(1_i64), &mut b_B3_pos, "B3_pos", |_, v| v)?;
    }
    Ok(Outputs {
        ints: vec!(("B1_crd", b_B1_crd), ("B2_pos", b_B2_pos), ("B2_crd", b_B2_crd), ("B3_pos", b_B3_pos), ("B3_crd", b_B3_crd)),
        floats: vec!(("B_vals", b_B_vals)),
        scalars: vec!(("q1", v_q1), ("q2", v_q2)),
    })
}

fn convert_coo3_to_csf_201(inputs: &Inputs<'_>) -> Checked<Outputs> {
    let b_A1_crd = inputs.int_array(0, "A1_crd")?;
    let b_A2_crd = inputs.int_array(1, "A2_crd")?;
    let b_A3_crd = inputs.int_array(2, "A3_crd")?;
    let b_A_vals = inputs.float_array(0, "A_vals")?;
    let v_N = inputs.int(0, "N")?;
    let v_M = inputs.int(1, "M")?;
    let v_L = inputs.int(2, "L")?;
    let v_nnz = inputs.int(3, "nnz")?;
    let mut b_B1_crd: Vec<i64>;
    let mut b_B2_crd: Vec<i64>;
    let mut b_B2_pos: Vec<i64>;
    let mut b_B3_crd: Vec<i64>;
    let mut b_B3_pos: Vec<i64>;
    let mut b_B_vals: Vec<f64>;
    let mut b_cnt1: Vec<i64>;
    let mut b_cnt2: Vec<i64>;
    let mut b_cnt3: Vec<i64>;
    let mut b_s_i: Vec<i64>;
    let mut b_s_j: Vec<i64>;
    let mut b_s_k: Vec<i64>;
    let mut b_s_v: Vec<f64>;
    let mut b_t1_i: Vec<i64>;
    let mut b_t1_j: Vec<i64>;
    let mut b_t1_k: Vec<i64>;
    let mut b_t1_v: Vec<f64>;
    let mut b_t2_i: Vec<i64>;
    let mut b_t2_j: Vec<i64>;
    let mut b_t2_k: Vec<i64>;
    let mut b_t2_v: Vec<f64>;
    let mut v_d: i64;
    let mut v_i: i64;
    let mut v_j: i64;
    let mut v_p: i64;
    let mut v_prev_i: i64;
    let mut v_prev_j: i64;
    let mut v_q1: i64;
    let mut v_q2: i64;
    let mut v_r: i64;
    // sort: LSD radix over (j, i, k) = stable lexicographic order
    // stable counting sort by A2_crd (M buckets)
    b_cnt1 = alloc(v_M.wrapping_add(1_i64))?;
    for it in 0_i64..v_nnz {
        v_p = it;
        update((ld(b_A2_crd, v_p, "A2_crd")? as i64).wrapping_add(1_i64), 1_i64, &mut b_cnt1, "cnt1", i64::wrapping_add)?;
    }
    for it in 0_i64..v_M {
        v_r = it;
        update(v_r.wrapping_add(1_i64), ld(&b_cnt1, v_r.wrapping_add(1_i64), "cnt1")?.wrapping_add(ld(&b_cnt1, v_r, "cnt1")?), &mut b_cnt1, "cnt1", |_, v| v)?;
    }
    b_t1_i = alloc(v_nnz)?;
    b_t1_j = alloc(v_nnz)?;
    b_t1_k = alloc(v_nnz)?;
    b_t1_v = alloc(v_nnz)?;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_d = ld(&b_cnt1, ld(b_A2_crd, v_p, "A2_crd")? as i64, "cnt1")?;
        update(ld(b_A2_crd, v_p, "A2_crd")? as i64, 1_i64, &mut b_cnt1, "cnt1", i64::wrapping_add)?;
        update(v_d, ld(b_A1_crd, v_p, "A1_crd")? as i64, &mut b_t1_i, "t1_i", |_, v| v)?;
        update(v_d, ld(b_A2_crd, v_p, "A2_crd")? as i64, &mut b_t1_j, "t1_j", |_, v| v)?;
        update(v_d, ld(b_A3_crd, v_p, "A3_crd")? as i64, &mut b_t1_k, "t1_k", |_, v| v)?;
        update(v_d, ld(b_A_vals, v_p, "A_vals")?, &mut b_t1_v, "t1_v", |_, v| v)?;
    }
    // stable counting sort by t1_i (N buckets)
    b_cnt2 = alloc(v_N.wrapping_add(1_i64))?;
    for it in 0_i64..v_nnz {
        v_p = it;
        update(ld(&b_t1_i, v_p, "t1_i")?.wrapping_add(1_i64), 1_i64, &mut b_cnt2, "cnt2", i64::wrapping_add)?;
    }
    for it in 0_i64..v_N {
        v_r = it;
        update(v_r.wrapping_add(1_i64), ld(&b_cnt2, v_r.wrapping_add(1_i64), "cnt2")?.wrapping_add(ld(&b_cnt2, v_r, "cnt2")?), &mut b_cnt2, "cnt2", |_, v| v)?;
    }
    b_t2_i = alloc(v_nnz)?;
    b_t2_j = alloc(v_nnz)?;
    b_t2_k = alloc(v_nnz)?;
    b_t2_v = alloc(v_nnz)?;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_d = ld(&b_cnt2, ld(&b_t1_i, v_p, "t1_i")?, "cnt2")?;
        update(ld(&b_t1_i, v_p, "t1_i")?, 1_i64, &mut b_cnt2, "cnt2", i64::wrapping_add)?;
        update(v_d, ld(&b_t1_i, v_p, "t1_i")?, &mut b_t2_i, "t2_i", |_, v| v)?;
        update(v_d, ld(&b_t1_j, v_p, "t1_j")?, &mut b_t2_j, "t2_j", |_, v| v)?;
        update(v_d, ld(&b_t1_k, v_p, "t1_k")?, &mut b_t2_k, "t2_k", |_, v| v)?;
        update(v_d, ld(&b_t1_v, v_p, "t1_v")?, &mut b_t2_v, "t2_v", |_, v| v)?;
    }
    // stable counting sort by t2_k (L buckets)
    b_cnt3 = alloc(v_L.wrapping_add(1_i64))?;
    for it in 0_i64..v_nnz {
        v_p = it;
        update(ld(&b_t2_k, v_p, "t2_k")?.wrapping_add(1_i64), 1_i64, &mut b_cnt3, "cnt3", i64::wrapping_add)?;
    }
    for it in 0_i64..v_L {
        v_r = it;
        update(v_r.wrapping_add(1_i64), ld(&b_cnt3, v_r.wrapping_add(1_i64), "cnt3")?.wrapping_add(ld(&b_cnt3, v_r, "cnt3")?), &mut b_cnt3, "cnt3", |_, v| v)?;
    }
    b_s_i = alloc(v_nnz)?;
    b_s_j = alloc(v_nnz)?;
    b_s_k = alloc(v_nnz)?;
    b_s_v = alloc(v_nnz)?;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_d = ld(&b_cnt3, ld(&b_t2_k, v_p, "t2_k")?, "cnt3")?;
        update(ld(&b_t2_k, v_p, "t2_k")?, 1_i64, &mut b_cnt3, "cnt3", i64::wrapping_add)?;
        update(v_d, ld(&b_t2_i, v_p, "t2_i")?, &mut b_s_i, "s_i", |_, v| v)?;
        update(v_d, ld(&b_t2_j, v_p, "t2_j")?, &mut b_s_j, "s_j", |_, v| v)?;
        update(v_d, ld(&b_t2_k, v_p, "t2_k")?, &mut b_s_k, "s_k", |_, v| v)?;
        update(v_d, ld(&b_t2_v, v_p, "t2_v")?, &mut b_s_v, "s_v", |_, v| v)?;
    }
    // pack: append fibers where a coordinate prefix changes
    b_B1_crd = alloc(v_nnz)?;
    b_B2_pos = alloc(v_nnz.wrapping_add(1_i64))?;
    b_B2_crd = alloc(v_nnz)?;
    b_B3_pos = alloc(v_nnz.wrapping_add(1_i64))?;
    b_B3_crd = alloc(v_nnz)?;
    b_B_vals = alloc(v_nnz)?;
    v_q1 = 0_i64;
    v_q2 = 0_i64;
    v_prev_i = -1_i64;
    v_prev_j = -1_i64;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_i = ld(&b_s_k, v_p, "s_k")?;
        v_j = ld(&b_s_i, v_p, "s_i")?;
        if v_i != v_prev_i {
            update(v_q1, v_i, &mut b_B1_crd, "B1_crd", |_, v| v)?;
            v_q1 = v_q1.wrapping_add(1_i64);
            v_prev_i = v_i;
            v_prev_j = -1_i64;
        }
        if v_j != v_prev_j {
            update(v_q2, v_j, &mut b_B2_crd, "B2_crd", |_, v| v)?;
            v_q2 = v_q2.wrapping_add(1_i64);
            update(v_q1, v_q2, &mut b_B2_pos, "B2_pos", |_, v| v)?;
            v_prev_j = v_j;
        }
        update(v_p, ld(&b_s_j, v_p, "s_j")?, &mut b_B3_crd, "B3_crd", |_, v| v)?;
        update(v_p, ld(&b_s_v, v_p, "s_v")?, &mut b_B_vals, "B_vals", |_, v| v)?;
        update(v_q2, v_p.wrapping_add(1_i64), &mut b_B3_pos, "B3_pos", |_, v| v)?;
    }
    Ok(Outputs {
        ints: vec!(("B1_crd", b_B1_crd), ("B2_pos", b_B2_pos), ("B2_crd", b_B2_crd), ("B3_pos", b_B3_pos), ("B3_crd", b_B3_crd)),
        floats: vec!(("B_vals", b_B_vals)),
        scalars: vec!(("q1", v_q1), ("q2", v_q2)),
    })
}

fn convert_coo3_to_csf_210(inputs: &Inputs<'_>) -> Checked<Outputs> {
    let b_A1_crd = inputs.int_array(0, "A1_crd")?;
    let b_A2_crd = inputs.int_array(1, "A2_crd")?;
    let b_A3_crd = inputs.int_array(2, "A3_crd")?;
    let b_A_vals = inputs.float_array(0, "A_vals")?;
    let v_N = inputs.int(0, "N")?;
    let v_M = inputs.int(1, "M")?;
    let v_L = inputs.int(2, "L")?;
    let v_nnz = inputs.int(3, "nnz")?;
    let mut b_B1_crd: Vec<i64>;
    let mut b_B2_crd: Vec<i64>;
    let mut b_B2_pos: Vec<i64>;
    let mut b_B3_crd: Vec<i64>;
    let mut b_B3_pos: Vec<i64>;
    let mut b_B_vals: Vec<f64>;
    let mut b_cnt1: Vec<i64>;
    let mut b_cnt2: Vec<i64>;
    let mut b_cnt3: Vec<i64>;
    let mut b_s_i: Vec<i64>;
    let mut b_s_j: Vec<i64>;
    let mut b_s_k: Vec<i64>;
    let mut b_s_v: Vec<f64>;
    let mut b_t1_i: Vec<i64>;
    let mut b_t1_j: Vec<i64>;
    let mut b_t1_k: Vec<i64>;
    let mut b_t1_v: Vec<f64>;
    let mut b_t2_i: Vec<i64>;
    let mut b_t2_j: Vec<i64>;
    let mut b_t2_k: Vec<i64>;
    let mut b_t2_v: Vec<f64>;
    let mut v_d: i64;
    let mut v_i: i64;
    let mut v_j: i64;
    let mut v_p: i64;
    let mut v_prev_i: i64;
    let mut v_prev_j: i64;
    let mut v_q1: i64;
    let mut v_q2: i64;
    let mut v_r: i64;
    // sort: LSD radix over (i, j, k) = stable lexicographic order
    // stable counting sort by A1_crd (N buckets)
    b_cnt1 = alloc(v_N.wrapping_add(1_i64))?;
    for it in 0_i64..v_nnz {
        v_p = it;
        update((ld(b_A1_crd, v_p, "A1_crd")? as i64).wrapping_add(1_i64), 1_i64, &mut b_cnt1, "cnt1", i64::wrapping_add)?;
    }
    for it in 0_i64..v_N {
        v_r = it;
        update(v_r.wrapping_add(1_i64), ld(&b_cnt1, v_r.wrapping_add(1_i64), "cnt1")?.wrapping_add(ld(&b_cnt1, v_r, "cnt1")?), &mut b_cnt1, "cnt1", |_, v| v)?;
    }
    b_t1_i = alloc(v_nnz)?;
    b_t1_j = alloc(v_nnz)?;
    b_t1_k = alloc(v_nnz)?;
    b_t1_v = alloc(v_nnz)?;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_d = ld(&b_cnt1, ld(b_A1_crd, v_p, "A1_crd")? as i64, "cnt1")?;
        update(ld(b_A1_crd, v_p, "A1_crd")? as i64, 1_i64, &mut b_cnt1, "cnt1", i64::wrapping_add)?;
        update(v_d, ld(b_A1_crd, v_p, "A1_crd")? as i64, &mut b_t1_i, "t1_i", |_, v| v)?;
        update(v_d, ld(b_A2_crd, v_p, "A2_crd")? as i64, &mut b_t1_j, "t1_j", |_, v| v)?;
        update(v_d, ld(b_A3_crd, v_p, "A3_crd")? as i64, &mut b_t1_k, "t1_k", |_, v| v)?;
        update(v_d, ld(b_A_vals, v_p, "A_vals")?, &mut b_t1_v, "t1_v", |_, v| v)?;
    }
    // stable counting sort by t1_j (M buckets)
    b_cnt2 = alloc(v_M.wrapping_add(1_i64))?;
    for it in 0_i64..v_nnz {
        v_p = it;
        update(ld(&b_t1_j, v_p, "t1_j")?.wrapping_add(1_i64), 1_i64, &mut b_cnt2, "cnt2", i64::wrapping_add)?;
    }
    for it in 0_i64..v_M {
        v_r = it;
        update(v_r.wrapping_add(1_i64), ld(&b_cnt2, v_r.wrapping_add(1_i64), "cnt2")?.wrapping_add(ld(&b_cnt2, v_r, "cnt2")?), &mut b_cnt2, "cnt2", |_, v| v)?;
    }
    b_t2_i = alloc(v_nnz)?;
    b_t2_j = alloc(v_nnz)?;
    b_t2_k = alloc(v_nnz)?;
    b_t2_v = alloc(v_nnz)?;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_d = ld(&b_cnt2, ld(&b_t1_j, v_p, "t1_j")?, "cnt2")?;
        update(ld(&b_t1_j, v_p, "t1_j")?, 1_i64, &mut b_cnt2, "cnt2", i64::wrapping_add)?;
        update(v_d, ld(&b_t1_i, v_p, "t1_i")?, &mut b_t2_i, "t2_i", |_, v| v)?;
        update(v_d, ld(&b_t1_j, v_p, "t1_j")?, &mut b_t2_j, "t2_j", |_, v| v)?;
        update(v_d, ld(&b_t1_k, v_p, "t1_k")?, &mut b_t2_k, "t2_k", |_, v| v)?;
        update(v_d, ld(&b_t1_v, v_p, "t1_v")?, &mut b_t2_v, "t2_v", |_, v| v)?;
    }
    // stable counting sort by t2_k (L buckets)
    b_cnt3 = alloc(v_L.wrapping_add(1_i64))?;
    for it in 0_i64..v_nnz {
        v_p = it;
        update(ld(&b_t2_k, v_p, "t2_k")?.wrapping_add(1_i64), 1_i64, &mut b_cnt3, "cnt3", i64::wrapping_add)?;
    }
    for it in 0_i64..v_L {
        v_r = it;
        update(v_r.wrapping_add(1_i64), ld(&b_cnt3, v_r.wrapping_add(1_i64), "cnt3")?.wrapping_add(ld(&b_cnt3, v_r, "cnt3")?), &mut b_cnt3, "cnt3", |_, v| v)?;
    }
    b_s_i = alloc(v_nnz)?;
    b_s_j = alloc(v_nnz)?;
    b_s_k = alloc(v_nnz)?;
    b_s_v = alloc(v_nnz)?;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_d = ld(&b_cnt3, ld(&b_t2_k, v_p, "t2_k")?, "cnt3")?;
        update(ld(&b_t2_k, v_p, "t2_k")?, 1_i64, &mut b_cnt3, "cnt3", i64::wrapping_add)?;
        update(v_d, ld(&b_t2_i, v_p, "t2_i")?, &mut b_s_i, "s_i", |_, v| v)?;
        update(v_d, ld(&b_t2_j, v_p, "t2_j")?, &mut b_s_j, "s_j", |_, v| v)?;
        update(v_d, ld(&b_t2_k, v_p, "t2_k")?, &mut b_s_k, "s_k", |_, v| v)?;
        update(v_d, ld(&b_t2_v, v_p, "t2_v")?, &mut b_s_v, "s_v", |_, v| v)?;
    }
    // pack: append fibers where a coordinate prefix changes
    b_B1_crd = alloc(v_nnz)?;
    b_B2_pos = alloc(v_nnz.wrapping_add(1_i64))?;
    b_B2_crd = alloc(v_nnz)?;
    b_B3_pos = alloc(v_nnz.wrapping_add(1_i64))?;
    b_B3_crd = alloc(v_nnz)?;
    b_B_vals = alloc(v_nnz)?;
    v_q1 = 0_i64;
    v_q2 = 0_i64;
    v_prev_i = -1_i64;
    v_prev_j = -1_i64;
    for it in 0_i64..v_nnz {
        v_p = it;
        v_i = ld(&b_s_k, v_p, "s_k")?;
        v_j = ld(&b_s_j, v_p, "s_j")?;
        if v_i != v_prev_i {
            update(v_q1, v_i, &mut b_B1_crd, "B1_crd", |_, v| v)?;
            v_q1 = v_q1.wrapping_add(1_i64);
            v_prev_i = v_i;
            v_prev_j = -1_i64;
        }
        if v_j != v_prev_j {
            update(v_q2, v_j, &mut b_B2_crd, "B2_crd", |_, v| v)?;
            v_q2 = v_q2.wrapping_add(1_i64);
            update(v_q1, v_q2, &mut b_B2_pos, "B2_pos", |_, v| v)?;
            v_prev_j = v_j;
        }
        update(v_p, ld(&b_s_i, v_p, "s_i")?, &mut b_B3_crd, "B3_crd", |_, v| v)?;
        update(v_p, ld(&b_s_v, v_p, "s_v")?, &mut b_B_vals, "B_vals", |_, v| v)?;
        update(v_q2, v_p.wrapping_add(1_i64), &mut b_B3_pos, "B3_pos", |_, v| v)?;
    }
    Ok(Outputs {
        ints: vec!(("B1_crd", b_B1_crd), ("B2_pos", b_B2_pos), ("B2_crd", b_B2_crd), ("B3_pos", b_B3_pos), ("B3_crd", b_B3_crd)),
        floats: vec!(("B_vals", b_B_vals)),
        scalars: vec!(("q1", v_q1), ("q2", v_q2)),
    })
}

fn convert_csf_to_coo3(inputs: &Inputs<'_>) -> Checked<Outputs> {
    let b_A1_crd = inputs.int_array(0, "A1_crd")?;
    let b_A2_pos = inputs.int_array(1, "A2_pos")?;
    let b_A2_crd = inputs.int_array(2, "A2_crd")?;
    let b_A3_pos = inputs.int_array(3, "A3_pos")?;
    let b_A3_crd = inputs.int_array(4, "A3_crd")?;
    let b_A_vals = inputs.float_array(0, "A_vals")?;
    let v_R1 = inputs.int(3, "R1")?;
    let v_nnz = inputs.int(4, "nnz")?;
    let mut b_B1_crd: Vec<i64>;
    let mut b_B2_crd: Vec<i64>;
    let mut b_B3_crd: Vec<i64>;
    let mut b_B_vals: Vec<f64>;
    let mut v_i: i64;
    let mut v_j: i64;
    let mut v_k: i64;
    let mut v_p: i64;
    let mut v_q: i64;
    let mut v_r: i64;
    let mut v_s: i64;
    // assembly: append nonzeros in source order
    b_B1_crd = alloc(v_nnz)?;
    b_B2_crd = alloc(v_nnz)?;
    b_B3_crd = alloc(v_nnz)?;
    b_B_vals = alloc(v_nnz)?;
    v_q = 0_i64;
    for it in 0_i64..v_R1 {
        v_r = it;
        v_i = ld(b_A1_crd, v_r, "A1_crd")? as i64;
        for it in (ld(b_A2_pos, v_r, "A2_pos")? as i64)..(ld(b_A2_pos, v_r.wrapping_add(1_i64), "A2_pos")? as i64) {
            v_s = it;
            v_j = ld(b_A2_crd, v_s, "A2_crd")? as i64;
            for it in (ld(b_A3_pos, v_s, "A3_pos")? as i64)..(ld(b_A3_pos, v_s.wrapping_add(1_i64), "A3_pos")? as i64) {
                v_p = it;
                v_k = ld(b_A3_crd, v_p, "A3_crd")? as i64;
                update(v_q, v_i, &mut b_B1_crd, "B1_crd", |_, v| v)?;
                update(v_q, v_j, &mut b_B2_crd, "B2_crd", |_, v| v)?;
                update(v_q, v_k, &mut b_B3_crd, "B3_crd", |_, v| v)?;
                update(v_q, ld(b_A_vals, v_p, "A_vals")?, &mut b_B_vals, "B_vals", |_, v| v)?;
                v_q = v_q.wrapping_add(1_i64);
            }
        }
    }
    Ok(Outputs {
        ints: vec!(("B1_crd", b_B1_crd), ("B2_crd", b_B2_crd), ("B3_crd", b_B3_crd)),
        floats: vec!(("B_vals", b_B_vals)),
        scalars: vec!(),
    })
}

#[cfg(test)]
fn emit_fixture(inputs: &Inputs<'_>) -> Checked<Outputs> {
    let b_xs = inputs.int_array(0, "xs")?;
    let b_vs = inputs.float_array(0, "vs")?;
    let v_n = inputs.int(0, "n")?;
    let mut b_f: Vec<f64>;
    let mut b_o: Vec<i64>;
    let mut v_acc: i64;
    let mut v_facc: f64;
    let mut v_i: i64;
    let mut v_last: i64;
    let v_late: f64;
    let mut v_w: i64;
    let mut v_x: i64;
    let mut v_zeros: i64;
    // every expression, on every element
    b_o = alloc(16_i64)?;
    b_f = alloc(8_i64)?;
    v_acc = i64::MIN;
    v_facc = 0.5_f64;
    for it in 0_i64..v_n {
        v_i = it;
        v_x = ld(b_xs, v_i, "xs")? as i64;
        v_acc = v_acc.wrapping_add(v_x.wrapping_mul(3_i64));
        update(0_i64, v_x, &mut b_o, "o", i64::wrapping_add)?;
        update(1_i64, v_x, &mut b_o, "o", i64::max)?;
        update(2_i64, v_x, &mut b_o, "o", |a, b| a | b)?;
        update(3_i64, div(100_i64, v_x.wrapping_sub(-1_i64))?, &mut b_o, "o", |_, v| v)?;
        update(4_i64, rem(v_acc, v_x)?, &mut b_o, "o", |_, v| v)?;
        update(5_i64, v_x << (65_i64 & 63), &mut b_o, "o", |_, v| v)?;
        update(6_i64, v_acc >> (v_x & 63), &mut b_o, "o", |_, v| v)?;
        update(7_i64, v_x ^ (v_acc & (-4_i64)), &mut b_o, "o", |_, v| v)?;
        update(8_i64, ((v_x != 0) & ((v_acc | v_x) != 0)) as i64, &mut b_o, "o", |_, v| v)?;
        update(9_i64, ((v_x != 0) | (v_acc != 0)) as i64, &mut b_o, "o", |_, v| v)?;
        update(10_i64, if v_x > 2_i64 { v_x } else { -2_i64 }, &mut b_o, "o", |_, v| v)?;
        update(11_i64, (v_x == 0) as i64, &mut b_o, "o", |_, v| v)?;
        update(12_i64, i64::min(v_x, v_acc), &mut b_o, "o", |_, v| v)?;
        update(13_i64, i64::max(v_x, -1_i64), &mut b_o, "o", |_, v| v)?;
        update(v_x, (v_x <= v_n) as i64, &mut b_o, "o", |_, v| v)?;
        v_facc = (v_facc * ld(b_vs, v_i, "vs")?) + (v_x as f64);
        update(0_i64, ld(b_vs, v_i, "vs")?, &mut b_f, "f", |a, b| a + b)?;
        update(1_i64, ld(b_vs, v_i, "vs")?, &mut b_f, "f", f64::max)?;
        update(2_i64, ld(b_vs, v_i, "vs")? / (v_x as f64), &mut b_f, "f", |_, v| v)?;
        update(3_i64, if ld(b_vs, v_i, "vs")? < 0.0_f64 { -0.0_f64 } else { f64::from_bits(0x7ff8000000000000) }, &mut b_f, "f", |_, v| v)?;
        update(4_i64, f64::min(ld(b_vs, v_i, "vs")?, -1e300_f64), &mut b_f, "f", |_, v| v)?;
        update(5_i64, ld(b_vs, v_i, "vs")? - v_facc, &mut b_f, "f", |_, v| v)?;
        update(6_i64, if ld(b_vs, v_i, "vs")? == ld(b_vs, v_i, "vs")? { v_x as f64 } else { ld(b_vs, v_i, "vs")? }, &mut b_f, "f", |_, v| v)?;
        if v_x != 0_i64 {
            v_last = v_x;
        } else {
            v_zeros = v_i.wrapping_add(1_i64);
        }
    }
    v_w = 0_i64;
    {
        let mut left = WHILE_BUDGET;
        while v_w < (ld(b_xs, 0_i64, "xs")? as i64) {
            tick(&mut left)?;
            v_w = v_w.wrapping_add(1_i64);
        }
    }
    if v_w >= 2_i64 {
        v_late = 2.5_f64;
    }
    update(7_i64, v_facc, &mut b_f, "f", |_, v| v)?;
    Ok(Outputs {
        ints: vec!(("o", b_o)),
        floats: vec!(("f", b_f)),
        scalars: vec!(("acc", v_acc), ("w", v_w)),
    })
}
