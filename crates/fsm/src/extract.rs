//! FSM extraction from a quantized transition dataset (paper §3.2.1).
//!
//! Each dataset row `⟨h_t, h_{t+1}, o_t, a_t⟩` is quantized through the two
//! QBNs to `⟨b_h, b_h', b_o, a⟩`; interning the codes produces the state and
//! symbol sets, and the observed `(b_h, b_o) → b_h'` triples form the
//! transition table. Each state is labelled with the action the policy
//! emitted from it (majority vote over the dataset — in a converged
//! deterministic policy the vote is unanimous).

use std::collections::HashMap;

use lahd_qbn::{CodeBook, Qbn, TransitionDataset};

use crate::machine::{Fsm, FsmState, ObsSymbol};

/// Extracts the finite state machine implied by `dataset` under the two
/// quantizers.
///
/// `initial_hidden` is the policy's reset hidden state (all zeros for the
/// GRU); its code becomes the FSM start state.
///
/// # Panics
/// Panics if the dataset is empty or the QBN widths do not match the
/// dataset's.
pub fn extract_fsm(
    dataset: &TransitionDataset,
    obs_qbn: &Qbn,
    hidden_qbn: &Qbn,
    initial_hidden: &[f32],
) -> Fsm {
    assert!(
        !dataset.is_empty(),
        "cannot extract an FSM from an empty dataset"
    );
    assert_eq!(
        obs_qbn.config().input_dim,
        dataset.obs_dim(),
        "observation QBN width does not match dataset"
    );
    assert_eq!(
        hidden_qbn.config().input_dim,
        dataset.hidden_dim(),
        "hidden QBN width does not match dataset"
    );

    let mut states = CodeBook::new();
    let mut symbols = CodeBook::new();
    // Per-state action votes and support.
    let mut action_votes: Vec<HashMap<usize, usize>> = Vec::new();
    let mut state_support: Vec<usize> = Vec::new();
    // Per-symbol centroid accumulation.
    let mut symbol_sum: Vec<Vec<f64>> = Vec::new();
    let mut symbol_count: Vec<usize> = Vec::new();
    // (state, symbol) → successor vote counts.
    let mut transition_votes: HashMap<(usize, usize), HashMap<usize, usize>> = HashMap::new();

    let intern_state = |code: lahd_qbn::Code,
                        votes: &mut Vec<HashMap<usize, usize>>,
                        support: &mut Vec<usize>,
                        book: &mut CodeBook| {
        let id = book.intern(code);
        if id == votes.len() {
            votes.push(HashMap::new());
            support.push(0);
        }
        id
    };

    // Seed the start state so it exists even if no transition re-enters it.
    let start_code = hidden_qbn.encode(initial_hidden);
    let initial_state = intern_state(
        start_code,
        &mut action_votes,
        &mut state_support,
        &mut states,
    );

    // Within an episode a row's `hidden` is the previous row's
    // `next_hidden`; when the bits agree, so does the state.
    let mut previous: Option<(&[f32], usize)> = None;
    for row in dataset.rows() {
        let s = match previous {
            Some((h, s)) if same_bits(h, &row.hidden) => s,
            _ => intern_state(
                hidden_qbn.encode(&row.hidden),
                &mut action_votes,
                &mut state_support,
                &mut states,
            ),
        };
        let s_next = intern_state(
            hidden_qbn.encode(&row.next_hidden),
            &mut action_votes,
            &mut state_support,
            &mut states,
        );
        let o = symbols.intern(obs_qbn.encode(&row.obs));
        if o == symbol_sum.len() {
            symbol_sum.push(vec![0.0; dataset.obs_dim()]);
            symbol_count.push(0);
        }
        for (acc, &v) in symbol_sum[o].iter_mut().zip(&row.obs) {
            *acc += f64::from(v);
        }
        symbol_count[o] += 1;

        previous = Some((&row.next_hidden, s_next));

        // The action is emitted from h_{t+1}, i.e. from the successor state.
        *action_votes[s_next].entry(row.action).or_insert(0) += 1;
        state_support[s_next] += 1;
        *transition_votes
            .entry((s, o))
            .or_default()
            .entry(s_next)
            .or_insert(0) += 1;
    }

    // Resolve votes.
    let fsm_states: Vec<FsmState> = states
        .iter()
        .map(|(id, code)| {
            let action = action_votes[id]
                .iter()
                .max_by_key(|&(_, &c)| c)
                .map(|(&a, _)| a)
                .unwrap_or(0); // states never entered (start only) default to action 0 (Noop)
            FsmState {
                code: code.clone(),
                action,
                support: state_support[id],
            }
        })
        .collect();

    let fsm_symbols: Vec<ObsSymbol> = symbols
        .iter()
        .map(|(id, code)| ObsSymbol {
            code: code.clone(),
            centroid: symbol_sum[id]
                .iter()
                .map(|&s| (s / symbol_count[id] as f64) as f32)
                .collect(),
            support: symbol_count[id],
        })
        .collect();

    let transitions = transition_votes
        .into_iter()
        .map(|((s, o), votes)| {
            let total: usize = votes.values().sum();
            let (&next, _) = votes
                .iter()
                .max_by_key(|&(_, &c)| c)
                .expect("non-empty votes");
            ((s, o), (next, total))
        })
        .collect();

    let fsm = Fsm {
        states: fsm_states,
        symbols: fsm_symbols,
        transitions,
        initial_state,
    };
    debug_assert!(fsm.validate().is_ok());
    fsm
}

/// Whether two vectors hold the same f32 bit patterns.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lahd_qbn::{QbnConfig, TransitionRow};

    /// QBNs small enough that distinct inputs land on distinct codes without
    /// training (random projections preserve the cluster separation used
    /// below).
    fn qbns() -> (Qbn, Qbn) {
        // Seeds picked so the untrained random projections keep X/Y and
        // A/B/initial on distinct codes under the workspace RNG.
        let obs = Qbn::new(QbnConfig::with_dims(2, 6), 0);
        let hid = Qbn::new(QbnConfig::with_dims(3, 6), 1);
        (obs, hid)
    }

    fn dataset_two_phases() -> TransitionDataset {
        // Alternates between hidden clusters A=(2,0,0) and B=(0,2,0) driven
        // by observations X=(2,0) and Y=(0,2); action 0 in A, action 1 in B.
        let a = vec![2.0, 0.0, 0.0];
        let b = vec![0.0, 2.0, 0.0];
        let x = vec![2.0, 0.0];
        let y = vec![0.0, 2.0];
        let mut ds = TransitionDataset::new();
        for i in 0..20 {
            ds.push(TransitionRow {
                obs: if i % 2 == 0 { x.clone() } else { y.clone() },
                hidden: if i % 2 == 0 { a.clone() } else { b.clone() },
                next_hidden: if i % 2 == 0 { b.clone() } else { a.clone() },
                action: if i % 2 == 0 { 1 } else { 0 },
                episode: 0,
                step: i,
            });
        }
        ds
    }

    #[test]
    fn extraction_builds_expected_structure() {
        let (obs_qbn, hid_qbn) = qbns();
        let ds = dataset_two_phases();
        let fsm = extract_fsm(&ds, &obs_qbn, &hid_qbn, &[0.0, 0.0, 0.0]);
        fsm.validate().unwrap();
        // At least: initial state + clusters A and B (A may coincide with
        // the initial code only if the random projection collapses them,
        // which the magnitudes prevent).
        assert!(
            fsm.num_states() >= 2,
            "expected ≥ 2 states, got {}",
            fsm.num_states()
        );
        assert!(fsm.num_symbols() >= 2);
        assert!(fsm.num_transitions() >= 2);
    }

    #[test]
    fn actions_are_majority_labelled() {
        let (obs_qbn, hid_qbn) = qbns();
        let ds = dataset_two_phases();
        let fsm = extract_fsm(&ds, &obs_qbn, &hid_qbn, &[0.0, 0.0, 0.0]);
        // Find the states for clusters A and B via their codes.
        let code_a = hid_qbn.encode(&[2.0, 0.0, 0.0]);
        let code_b = hid_qbn.encode(&[0.0, 2.0, 0.0]);
        let sa = fsm.states.iter().position(|s| s.code == code_a).unwrap();
        let sb = fsm.states.iter().position(|s| s.code == code_b).unwrap();
        // Transitions into B carry action 1; into A carry action 0.
        assert_eq!(fsm.states[sb].action, 1);
        assert_eq!(fsm.states[sa].action, 0);
        assert_ne!(sa, sb);
    }

    #[test]
    fn symbol_centroids_average_observations() {
        let (obs_qbn, hid_qbn) = qbns();
        let ds = dataset_two_phases();
        let fsm = extract_fsm(&ds, &obs_qbn, &hid_qbn, &[0.0, 0.0, 0.0]);
        let x_code = obs_qbn.encode(&[2.0, 0.0]);
        let sym = fsm.symbol_by_code(&x_code).expect("X symbol exists");
        let c = &fsm.symbols[sym].centroid;
        assert!(
            (c[0] - 2.0).abs() < 1e-5 && c[1].abs() < 1e-5,
            "centroid {c:?}"
        );
    }

    #[test]
    fn deterministic_dataset_gives_deterministic_transitions() {
        let (obs_qbn, hid_qbn) = qbns();
        let ds = dataset_two_phases();
        let a = extract_fsm(&ds, &obs_qbn, &hid_qbn, &[0.0; 3]);
        let b = extract_fsm(&ds, &obs_qbn, &hid_qbn, &[0.0; 3]);
        assert_eq!(a.num_states(), b.num_states());
        assert_eq!(a.transitions.len(), b.transitions.len());
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let (obs_qbn, hid_qbn) = qbns();
        let _ = extract_fsm(&TransitionDataset::new(), &obs_qbn, &hid_qbn, &[0.0; 3]);
    }
}
