//! Reproduction of the paper's Fig. 7: programming a 9-entry
//! economical-storage table for North-Last routing on a 3×3 mesh.
//!
//! The router at (1,1) computes the sign pair (s_x, s_y) of every
//! destination and indexes the table below; the "candidate ports" column
//! lists all minimal ports, the "North-Last" column what the turn model
//! actually permits (dotted turns in Fig. 7(c) are disallowed).
//!
//! ```text
//! cargo run --example es_table_programming
//! ```

use lapses::core::tables::{EconomicalTable, TableScheme};
use lapses::prelude::*;
use lapses::topology::SignVec;

fn main() {
    let mesh = Mesh::mesh_2d(3, 3);
    let source = mesh.id_at(&[1, 1]).expect("center of the 3x3 mesh");

    let table = EconomicalTable::program(&mesh, &Algorithm::NorthLast);

    println!("Fig. 7: economical-storage table at router (1,1) of a 3x3 mesh");
    println!("        programmed for North-Last partially-adaptive routing\n");
    println!(
        "{:<10} {:>4} {:>4}   {:<18} {:<18}",
        "dest", "s_x", "s_y", "candidate ports", "North-Last entry"
    );

    for dest in mesh.nodes() {
        let dc = mesh.coord_of(dest);
        let sv = SignVec::between(&mesh.coord_of(source), &dc);
        let all = if dest == source {
            PortSet::single(Port::LOCAL)
        } else {
            Algorithm::Duato.candidates(&mesh, source, dest) // all minimal ports
        };
        let entry = table.entry(source, dest);
        println!(
            "{:<10} {:>4} {:>4}   {:<18} {:<18}",
            dc.to_string(),
            sv.sign(0).to_string(),
            sv.sign(1).to_string(),
            all.to_string(),
            entry.candidates.to_string()
        );
    }

    println!(
        "\nOnly 9 table entries — one per (s_x, s_y) pair — encode the whole \
         relation, for any\nmesh size. Note destinations (0,2) and (2,2): two \
         minimal ports exist but North-Last\nforbids turning after going \
         north, so +d1 (north) is dropped (Fig. 7(d))."
    );
    println!(
        "\nStorage: {} entries here — and still {} on the paper's 16x16 mesh, \
         where a full table needs 256.",
        table.storage().entries_per_router,
        EconomicalTable::program(&Mesh::mesh_2d(16, 16), &Algorithm::NorthLast)
            .storage()
            .entries_per_router
    );
}
