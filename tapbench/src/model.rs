//! The operator's set-up: training the IP/UDP ML frame-rate model on a
//! fixed in-lab corpus.

use vcaml::{build_samples, PipelineOpts, Trace};
use vcaml_datasets::{inlab_corpus, CorpusConfig};
use vcaml_mlcore::{Dataset, RandomForest, RandomForestParams, Task};
use vcaml_rtp::VcaKind;

/// The training corpus. Fixed (not the workload seed): the model is part
/// of the system under test, not of its input.
pub fn corpus() -> Vec<Trace> {
    inlab_corpus(VcaKind::Teams, &CorpusConfig::inlab_default(0xbead))
}

/// Window samples plus a 40-tree regression forest on the 14 IP/UDP
/// features, as the paper's IP/UDP ML method trains it.
pub fn train(corpus: &[Trace]) -> RandomForest {
    let opts = PipelineOpts::paper(VcaKind::Teams);
    let set = build_samples(corpus, &opts);
    let mut data = Dataset::new(set.ipudp_names.clone());
    for s in &set.samples {
        data.push(&s.ipudp_features, s.truth.fps);
    }
    let params = RandomForestParams {
        n_trees: 40,
        seed: 7,
        ..Default::default()
    };
    RandomForest::fit(&data, Task::Regression, &params)
}
