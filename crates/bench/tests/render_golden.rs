//! Byte-for-byte pins of every figure table's aligned-text and CSV
//! output, on fixed synthetic rows (no simulation). Plotting scripts and
//! the checked-in `results/` files depend on these exact bytes: column
//! widths, precisions, header spellings, and which rows CSV leaves out.

use multipath_bench::{ExplainRow, Fig3Row, Fig4Row, Fig5Row, Fig6Row, Table1Row};
use multipath_core::{AltPolicy, Features};
use multipath_workload::Benchmark;

fn fig3_rows() -> Vec<Fig3Row> {
    vec![
        Fig3Row {
            bench: Benchmark::Compress,
            ipc: [1.005, 2.5, 3.14161, 0.0, 12.345678, 1.0 / 3.0],
        },
        Fig3Row {
            bench: Benchmark::Su2cor,
            ipc: [4.4444, 0.125, 7.0, 2.675, 100.0, 0.015],
        },
    ]
}

fn fig4_rows() -> Vec<Fig4Row> {
    vec![
        Fig4Row {
            programs: 1,
            ipc: [1.5, 2.25, 3.125, 4.0625, 5.03125, 6.015625],
        },
        Fig4Row {
            programs: 4,
            ipc: [10.0, 0.004, 0.005, 0.006, 9.99999, 1.23456],
        },
    ]
}

fn fig5_rows() -> Vec<Fig5Row> {
    vec![
        Fig5Row {
            policy: AltPolicy::Stop(8),
            ipc: [2.345, 3.0, 4.56789],
        },
        Fig5Row {
            policy: AltPolicy::NoStop(32),
            ipc: [0.1, 10.25, 7.77777],
        },
    ]
}

fn fig6_rows() -> Vec<Fig6Row> {
    vec![
        Fig6Row {
            machine: "small.1.8",
            features: Features::smt(),
            ipc: [1.111, 2.222, 3.333],
        },
        Fig6Row {
            machine: "big.2.16",
            features: Features::rec_rs_ru(),
            ipc: [4.5, 5.125, 6.0001],
        },
    ]
}

fn table1_rows() -> Vec<Table1Row> {
    vec![
        Table1Row {
            label: "compress".to_owned(),
            pct_recycled: 12.345,
            pct_reused: 0.05,
            pct_miss_cov: 67.891,
            pct_forks_tme: 100.0,
            pct_forks_recycled: 3.25,
            pct_forks_respawned: 0.0,
            merges_per_alt: 1.875,
            pct_back_merges: 45.6789,
        },
        Table1Row {
            label: "4 progs avg".to_owned(),
            pct_recycled: 8.0,
            pct_reused: 1.2345,
            pct_miss_cov: 9.99,
            pct_forks_tme: 50.5,
            pct_forks_recycled: 25.25,
            pct_forks_respawned: 12.125,
            merges_per_alt: 0.333,
            pct_back_merges: 0.0,
        },
    ]
}

fn explain_rows() -> Vec<ExplainRow> {
    vec![
        ExplainRow {
            bench: Benchmark::Compress,
            recycled: 4629,
            reused: 7,
            denied: [1621, 1, 22, 333, 4444, 55, 2146],
            fork_refused: 12,
        },
        ExplainRow {
            bench: Benchmark::Li,
            recycled: 0,
            reused: 0,
            denied: [0; 7],
            fork_refused: 123456,
        },
    ]
}

#[test]
fn figure3_text_and_csv_are_pinned() {
    let table = Fig3Row::table(&fig3_rows());
    assert_eq!(
        table.text(),
        "\
bench            SMT       TME       REC    REC/RU    REC/RS REC/RS/RU
compress        1.00      2.50      3.14      0.00     12.35      0.33
su2cor          4.44      0.12      7.00      2.67    100.00      0.01
average         2.72      1.31      5.07      1.34     56.17      0.17
"
    );
    assert_eq!(
        table.csv(),
        "\
bench,smt,tme,rec,rec_ru,rec_rs,rec_rs_ru
compress,1.0050,2.5000,3.1416,0.0000,12.3457,0.3333
su2cor,4.4444,0.1250,7.0000,2.6750,100.0000,0.0150
"
    );
}

#[test]
fn figure4_text_and_csv_are_pinned() {
    let table = Fig4Row::table(&fig4_rows());
    assert_eq!(
        table.text(),
        "\
programs         SMT       TME       REC    REC/RU    REC/RS REC/RS/RU
         1      1.50      2.25      3.12      4.06      5.03      6.02
         4     10.00      0.00      0.01      0.01     10.00      1.23
"
    );
    assert_eq!(
        table.csv(),
        "\
programs,smt,tme,rec,rec_ru,rec_rs,rec_rs_ru
1,1.5000,2.2500,3.1250,4.0625,5.0312,6.0156
4,10.0000,0.0040,0.0050,0.0060,10.0000,1.2346
"
    );
}

#[test]
fn figure5_text_and_csv_are_pinned() {
    let table = Fig5Row::table(&fig5_rows());
    assert_eq!(
        table.text(),
        "\
policy           1 prog    2 progs    4 progs
stop-8             2.35       3.00       4.57
nostop-32          0.10      10.25       7.78
"
    );
    assert_eq!(
        table.csv(),
        "\
policy,p1,p2,p4
stop-8,2.3450,3.0000,4.5679
nostop-32,0.1000,10.2500,7.7778
"
    );
}

#[test]
fn figure6_text_and_csv_are_pinned() {
    let table = Fig6Row::table(&fig6_rows());
    assert_eq!(
        table.text(),
        "\
machine    config         1 prog    2 progs    4 progs
small.1.8  SMT              1.11       2.22       3.33
big.2.16   REC/RS/RU        4.50       5.12       6.00
"
    );
    assert_eq!(
        table.csv(),
        "\
machine,config,p1,p2,p4
small.1.8,SMT,1.1110,2.2220,3.3330
big.2.16,REC/RS/RU,4.5000,5.1250,6.0001
"
    );
}

#[test]
fn table1_text_and_csv_are_pinned() {
    let table = Table1Row::table(&table1_rows());
    assert_eq!(
        table.text(),
        "\
program        recyc%  reuse%  misscov%   tme% recyc% respawn% merges/alt   back%
compress         12.3     0.1      67.9  100.0    3.2      0.0        1.9    45.7
4 progs avg       8.0     1.2      10.0   50.5   25.2     12.1        0.3     0.0
"
    );
    assert_eq!(
        table.csv(),
        "\
program,recycled_pct,reused_pct,misscov_pct,forks_tme_pct,forks_recycled_pct,forks_respawned_pct,merges_per_alt,back_merges_pct
compress,12.35,0.05,67.89,100.00,3.25,0.00,1.88,45.68
4 progs avg,8.00,1.23,9.99,50.50,25.25,12.12,0.33,0.00
"
    );
}

#[test]
fn explain_text_and_csv_are_pinned() {
    let table = ExplainRow::table(&explain_rows());
    assert_eq!(
        table.text(),
        "\
bench       recycled   reused  yield%     disabled     not_exec      chained    no_result     released  overwritten    mem_inval  refused
compress        4629        7     0.2         1621            1           22          333         4444           55         2146       12
li                 0        0     0.0            0            0            0            0            0            0            0   123456
"
    );
    assert_eq!(
        table.csv(),
        "\
bench,recycled,reused,yield_pct,reuse_disabled,not_executed,chained_reuse,no_result,regs_released,source_overwritten,mem_invalidated,fork_refused
compress,4629,7,0.15,1621,1,22,333,4444,55,2146,12
li,0,0,0.00,0,0,0,0,0,0,0,123456
"
    );
}
