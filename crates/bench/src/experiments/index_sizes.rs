//! Tab. 3 (layer-1 index sizes), Fig. 9 (per-layer sizes), and the
//! construction times of Exp-3. Every index here is built with the
//! `greedy_full_step_configs` shortcut ([`default_index`]), not Algo. 1;
//! `exp_build_scaling` times the Algo. 1 build.

use crate::harness::{fmt_duration, TableWriter};
use crate::setup::default_index;
use bgi_datasets::DatasetSpec;

/// Renders Tab. 3 + Fig. 9 + construction times.
pub fn run(scale: usize) -> String {
    let max_layers = 7;
    let mut out = String::new();

    let specs = [
        DatasetSpec::yago_like(scale),
        DatasetSpec::dbpedia_like(scale),
        DatasetSpec::imdb_like(scale),
        DatasetSpec::synt(scale / 2),
        DatasetSpec::synt(scale),
        DatasetSpec::synt(scale * 2),
        DatasetSpec::synt(scale * 4),
    ];

    let mut tab3 = TableWriter::new(&["Dataset", "Layer-1 size (|V|+|E|)", "Size ratio"]);
    let mut fig9 = TableWriter::new(&["Dataset", "L0", "L1", "L2", "L3", "L4", "L5", "L6", "L7"]);
    let mut times = TableWriter::new(&[
        "Dataset",
        "Construction time (all layers, full-step shortcut)",
    ]);

    for spec in &specs {
        let ds = spec.generate();
        let (index, build_time) = default_index(&ds, max_layers);
        let sizes = index.layer_sizes();
        if sizes.len() > 1 {
            let g1 = index.graph_at(1);
            tab3.row(&[
                ds.name.clone(),
                format!("{} + {}", g1.num_vertices(), g1.num_edges()),
                format!("{:.4}", index.size_ratio(1)),
            ]);
        }
        let mut cells = vec![ds.name.clone()];
        for i in 0..=7usize {
            cells.push(sizes.get(i).map_or_else(|| "-".into(), usize::to_string));
        }
        fig9.row(&cells);
        times.row(&[ds.name.clone(), fmt_duration(build_time)]);
    }

    out.push_str("## Tab. 3 — index size of layer 1 of BiG-index\n\n");
    out.push_str(&tab3.render());
    out.push_str("\n## Fig. 9 — summary graph sizes (|V|+|E|) at different layers\n\n");
    out.push_str(&fig9.render());
    out.push_str("\n## Exp-3 — construction time\n\n");
    out.push_str(&times.render());
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_has_ratios_below_one() {
        let report = super::run(2000);
        assert!(report.contains("Tab. 3"));
        assert!(report.contains("Fig. 9"));
        assert!(report.contains("yago-like"));
        // A ratio cell like 0.xxxx must appear.
        assert!(report.contains("0."));
    }
}
