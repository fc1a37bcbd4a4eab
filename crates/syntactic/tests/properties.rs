//! Property-based tests for the `Ls` substrate.
//!
//! The contracts under test are the soundness halves of Definitions 1 and
//! 2 instantiated for the syntactic language, plus internal invariants of
//! the DAG representation (counts match enumeration on small instances,
//! pruning preserves the denotation).

use proptest::prelude::*;

use sst_counting::BigUint;
use sst_syntactic::{
    eval_expr, eval_pos_with_runs, generate_dag, intersect_dags, GenOptions, PosMemo,
    PositionLearner, StringRuns, SyntacticLearner, TokenSet, Var,
};

fn ascii() -> impl Strategy<Value = String> {
    "[ -~]{1,12}"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every position expression learned for (s, t) evaluates back to t.
    #[test]
    fn learned_positions_are_sound(s in ascii()) {
        let set = TokenSet::standard();
        let runs = StringRuns::compute(&s, &set);
        let learner = PositionLearner::new(&runs, &set, 2);
        for t in 0..=runs.len() {
            for pset in learner.learn(t) {
                for p in pset.enumerate(64) {
                    prop_assert_eq!(
                        eval_pos_with_runs(&p, &runs, &set),
                        Some(t),
                        "position {} at t={} in {:?}", p, t, &s
                    );
                }
            }
        }
    }

    /// Every program in the generated DAG maps the input to the output
    /// (sampled; output is built from the input to make sources useful).
    #[test]
    fn generate_dag_sound_on_derived_outputs(
        input in "[A-Za-z0-9 ,./-]{2,10}",
        a in 0usize..10,
        b in 0usize..10,
    ) {
        let chars: Vec<char> = input.chars().collect();
        let (a, b) = (a % chars.len(), b % chars.len());
        let (a, b) = (a.min(b), a.max(b) + 1);
        let output: String = chars[a..b].iter().collect();
        let opts = GenOptions::default();
        let sources = [(Var(0), input.as_str())];
        let dag = generate_dag(&sources, &output, &opts);
        for prog in dag.enumerate_programs(100) {
            let got = eval_expr(
                &prog,
                &mut |v: &Var| (v.0 == 0).then(|| input.clone()),
                &opts.token_set,
            );
            prop_assert_eq!(got.as_deref(), Some(output.as_str()), "prog {}", prog);
        }
    }

    /// Intersection soundness: surviving programs reproduce both examples.
    #[test]
    fn intersection_sound_on_random_pairs(
        in1 in "[a-z]{2,6} [0-9]{1,4}",
        in2 in "[a-z]{2,6} [0-9]{1,4}",
    ) {
        let out1: String = in1.split(' ').nth(1).unwrap().to_string();
        let out2: String = in2.split(' ').nth(1).unwrap().to_string();
        let opts = GenOptions::default();
        let d1 = generate_dag(&[(Var(0), in1.as_str())], &out1, &opts);
        let d2 = generate_dag(&[(Var(0), in2.as_str())], &out2, &opts);
        let Some(inter) = intersect_dags(
            &d1,
            &d2,
            &mut |a: &Var, b: &Var| (a == b).then_some(*a),
            &PosMemo::new(),
        ) else {
            return Ok(());
        };
        for prog in inter.enumerate_programs(60) {
            let got1 = eval_expr(
                &prog,
                &mut |v: &Var| (v.0 == 0).then(|| in1.clone()),
                &opts.token_set,
            );
            prop_assert_eq!(got1.as_deref(), Some(out1.as_str()), "prog {}", prog);
            let got2 = eval_expr(
                &prog,
                &mut |v: &Var| (v.0 == 0).then(|| in2.clone()),
                &opts.token_set,
            );
            prop_assert_eq!(got2.as_deref(), Some(out2.as_str()), "prog {}", prog);
        }
    }

    /// Counting agrees with exhaustive enumeration on tiny instances.
    #[test]
    fn count_matches_enumeration_when_small(
        input in "[a-z]{1,3}",
        output in "[a-z]{1,3}",
    ) {
        let opts = GenOptions::default();
        let dag = generate_dag(&[(Var(0), input.as_str())], &output, &opts);
        let count = dag.count_programs(&mut |_| BigUint::one());
        if let Some(c) = count.to_u64() {
            if c <= 2000 {
                let all = dag.enumerate_programs(4000);
                prop_assert_eq!(all.len() as u64, c);
            }
        }
    }

    /// The learner's top program always reproduces its own example.
    #[test]
    fn top_program_reproduces_training_example(
        input in "[A-Za-z0-9,./ -]{1,10}",
        output in "[A-Za-z0-9 ]{1,6}",
    ) {
        let learner = SyntacticLearner::default();
        let learned = learner
            .learn(&[(vec![input.clone()], output.clone())])
            .expect("const program always exists");
        let top = learned.top().expect("top program");
        prop_assert_eq!(learned.run(&top, &[input.as_str()]), Some(output));
    }

    /// Self-intersection preserves the program count (idempotence up to
    /// representation).
    #[test]
    fn self_intersection_preserves_count(input in "[a-z0-9]{2,6}") {
        let opts = GenOptions::default();
        let output: String = input.chars().rev().collect();
        let dag = generate_dag(&[(Var(0), input.as_str())], &output, &opts);
        let inter = intersect_dags(
            &dag,
            &dag,
            &mut |a: &Var, b: &Var| (a == b).then_some(*a),
            &PosMemo::new(),
        )
        .expect("nonempty");
        prop_assert_eq!(
            dag.count_programs(&mut |_| BigUint::one()),
            inter.count_programs(&mut |_| BigUint::one())
        );
    }
}
