//! The correctness checks a run applies to the program's outputs. Each
//! returns a description of the first violation it finds.

use bgi_graph::{DiGraph, LabelId, VId};
use bgi_search::AnswerGraph;

/// A served answer set must be valid in the data graph and equal the
/// reference computed by a direct, unbudgeted execution.
pub fn exact_answers(
    served: &[AnswerGraph],
    reference: &[AnswerGraph],
    g: &DiGraph,
    keywords: &[LabelId],
) -> Result<(), String> {
    if let Some(i) = served.iter().position(|a| !a.validate(g, keywords)) {
        return Err(format!(
            "answer {i} is not a valid answer in the data graph"
        ));
    }
    if served != reference {
        return Err(format!(
            "served {} answer(s) differ from the {} of the reference execution",
            served.len(),
            reference.len()
        ));
    }
    Ok(())
}

/// A digest of an answer list, so a run need not keep every response:
/// equal lists have equal digests.
pub fn answers_digest(answers: &[AnswerGraph]) -> u64 {
    let mut words: Vec<u32> = Vec::new();
    for a in answers {
        words.push(a.vertices.len() as u32);
        words.extend(a.vertices.iter().map(|v| v.0));
        words.push(a.edges.len() as u32);
        words.extend(a.edges.iter().flat_map(|&(u, v)| [u.0, v.0]));
        for m in &a.keyword_matches {
            words.push(m.len() as u32);
            words.extend(m.iter().map(|v| v.0));
        }
        words.push(a.root.map_or(u32::MAX, |r| r.0));
        words.extend([a.score as u32, (a.score >> 32) as u32]);
    }
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    crate::util::fnv1a(&bytes)
}

/// Under concurrent writes only the keyword matches are stable: every
/// answer must match each keyword with vertices carrying that label.
/// `label_of` knows every vertex the run can create.
pub fn keyword_labels(
    served: &[AnswerGraph],
    label_of: impl Fn(VId) -> Option<LabelId>,
    keywords: &[LabelId],
) -> Result<(), String> {
    for (i, a) in served.iter().enumerate() {
        if a.keyword_matches.len() != keywords.len() {
            return Err(format!("answer {i} does not cover every keyword"));
        }
        for (matches, &kw) in a.keyword_matches.iter().zip(keywords) {
            if matches.is_empty() || matches.iter().any(|&v| label_of(v) != Some(kw)) {
                return Err(format!(
                    "answer {i} matches keyword {} with a wrong label",
                    kw.0
                ));
            }
        }
    }
    Ok(())
}

/// Every acknowledged update survives a restart: the graph recovered
/// from the store and its log equals the live graph.
pub fn same_graph(live: &DiGraph, recovered: &DiGraph) -> Result<(), String> {
    if live != recovered {
        return Err(format!(
            "recovered graph ({} vertices, {} edges) differs from the live graph \
             ({} vertices, {} edges)",
            recovered.num_vertices(),
            recovered.num_edges(),
            live.num_vertices(),
            live.num_edges()
        ));
    }
    Ok(())
}

/// Every build of one input encodes to the same bytes.
pub fn identical_digests(digests: &[u64]) -> Result<(), String> {
    match digests.split_first() {
        Some((first, rest)) if rest.iter().any(|d| d != first) => Err(format!(
            "builds of one input encode differently: {}",
            digests
                .iter()
                .map(|d| format!("{d:016x}"))
                .collect::<Vec<_>>()
                .join(", ")
        )),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph() -> DiGraph {
        bgi_graph::GraphBuilder::from_edges(
            vec![LabelId(0), LabelId(1), LabelId(2)],
            vec![(VId(0), VId(1)), (VId(1), VId(2))],
        )
    }

    fn answer() -> AnswerGraph {
        AnswerGraph::new(
            vec![VId(0), VId(1), VId(2)],
            vec![(VId(0), VId(1)), (VId(1), VId(2))],
            vec![vec![VId(0)], vec![VId(2)]],
            Some(VId(0)),
            2,
        )
    }

    const KW: [LabelId; 2] = [LabelId(0), LabelId(2)];

    #[test]
    fn exact_answers_pass_on_equal_valid_answers() {
        let g = path_graph();
        assert!(exact_answers(&[answer()], &[answer()], &g, &KW).is_ok());
    }

    #[test]
    fn exact_answers_fail_on_a_missing_edge() {
        let g = path_graph();
        let mut bad = answer();
        bad.edges.push((VId(2), VId(0)));
        assert!(exact_answers(&[bad.clone()], &[bad], &g, &KW).is_err());
    }

    #[test]
    fn exact_answers_fail_on_a_reference_mismatch() {
        let g = path_graph();
        let mut other = answer();
        other.score = 3;
        assert!(exact_answers(&[answer()], &[other], &g, &KW).is_err());
        assert!(exact_answers(&[], &[answer()], &g, &KW).is_err());
    }

    #[test]
    fn digests_separate_answer_lists() {
        let mut other = answer();
        other.score = 3;
        assert_eq!(answers_digest(&[answer()]), answers_digest(&[answer()]));
        assert_ne!(answers_digest(&[answer()]), answers_digest(&[other]));
        assert_ne!(answers_digest(&[answer()]), answers_digest(&[]));
    }

    #[test]
    fn keyword_labels_fail_on_a_wrong_label() {
        let g = path_graph();
        let label_of = |v: VId| g.labels().get(v.index()).copied();
        assert!(keyword_labels(&[answer()], label_of, &KW).is_ok());
        let mut bad = answer();
        bad.keyword_matches[1] = vec![VId(1)];
        assert!(keyword_labels(&[bad], label_of, &KW).is_err());
        let unknown = |_: VId| None;
        assert!(keyword_labels(&[answer()], unknown, &KW).is_err());
    }

    #[test]
    fn same_graph_fails_when_an_update_is_lost() {
        let g = path_graph();
        assert!(same_graph(&g, &g.clone()).is_ok());
        let lost = bgi_graph::GraphBuilder::from_edges(
            vec![LabelId(0), LabelId(1), LabelId(2)],
            vec![(VId(0), VId(1))],
        );
        assert!(same_graph(&g, &lost).is_err());
    }

    #[test]
    fn identical_digests_fail_on_any_difference() {
        assert!(identical_digests(&[7, 7, 7]).is_ok());
        assert!(identical_digests(&[7]).is_ok());
        assert!(identical_digests(&[7, 8]).is_err());
    }
}
