//! The built-in challenge library: two challenges per vertical.
//!
//! Each challenge fixes the business requirement and leaves open exactly
//! the design dimensions whose interferences the paper wants trainees to
//! discover: scope vs cost, batch vs stream, model quality vs spend,
//! anonymisation route vs utility.

use toreador_catalog::descriptor::Capability;
use toreador_catalog::matching::Preferences;
use toreador_core::declarative::{
    CampaignSpec, Goal, Indicator, LateDataPolicy, ProcessingMode, StreamOptions, Target,
};

use crate::challenge::{Challenge, ChoiceOption, ChoicePoint, SpecEdit};
use crate::error::{LabsError, Result};

/// All built-in challenges.
pub fn challenges() -> Vec<Challenge> {
    vec![
        ecommerce_revenue(),
        ecommerce_basket(),
        energy_forecast(),
        energy_anomaly(),
        health_compliance(),
        health_insight(),
        fraud_exposure(),
        fraud_spikes(),
    ]
}

/// Look up a challenge by id.
pub fn challenge(id: &str) -> Result<Challenge> {
    challenges()
        .into_iter()
        .find(|c| c.id == id)
        .ok_or_else(|| LabsError::Unknown(format!("challenge {id:?}")))
}

fn ecommerce_revenue() -> Challenge {
    let base = CampaignSpec::new("revenue-by-category", "clicks")
        .goal(Goal::new(Capability::Filtering).param("predicate", "action == 'purchase'"))
        .goal(
            Goal::new(Capability::Aggregation)
                .param("group_by", "category")
                .param("agg", "sum:price:revenue,count:event_id:purchases"),
        )
        .goal(
            Goal::new(Capability::Reporting)
                .pin("viz.report.table")
                .param("limit", "10"),
        )
        .objective(Indicator::RuntimeMs, Target::AtMost(120_000.0))
        .objective(Indicator::Coverage, Target::AtLeast(0.99))
        .with_seed(17);
    Challenge {
        id: "ecomm-revenue",
        scenario_id: "ecommerce-clicks",
        title: "Where does the revenue come from?",
        brief: "Finance wants a revenue breakdown per product category, \
                refreshed within two minutes, without discarding sales data. \
                Decide how much data to look at and whether to process the \
                clickstream as a batch or as it arrives.",
        base,
        choice_points: vec![
            ChoicePoint {
                id: "scope",
                prompt: "Analyse every event, or estimate from a 10% sample?",
                options: vec![
                    ChoiceOption {
                        id: "full",
                        label: "All events",
                        edits: vec![],
                    },
                    ChoiceOption {
                        id: "sample",
                        label: "10% sample (cheaper, approximate)",
                        edits: vec![SpecEdit::PrependSample { fraction: 0.1 }],
                    },
                ],
            },
            ChoicePoint {
                id: "regime",
                prompt: "Batch over the full log, or hourly micro-batches?",
                options: vec![
                    ChoiceOption {
                        id: "batch",
                        label: "One batch run",
                        edits: vec![SpecEdit::SetMode(ProcessingMode::Batch)],
                    },
                    ChoiceOption {
                        id: "stream",
                        label: "Hourly micro-batches",
                        edits: vec![SpecEdit::SetMode(ProcessingMode::Stream {
                            window_ms: 3_600_000,
                        })],
                    },
                ],
            },
        ],
        reference_choices: vec!["full", "batch"],
    }
}

fn ecommerce_basket() -> Challenge {
    let base = CampaignSpec::new("market-basket", "clicks")
        .goal(
            Goal::new(Capability::AssociationRules)
                .param("id", "session_id")
                .param("item", "category")
                .param("min_support", "0.05")
                .param("min_confidence", "0.3"),
        )
        .objective(Indicator::RuntimeMs, Target::AtMost(300_000.0))
        .with_seed(23);
    Challenge {
        id: "ecomm-basket",
        scenario_id: "ecommerce-clicks",
        title: "What sells together?",
        brief: "Merchandising wants category associations to plan cross-sell \
                campaigns. Mining every co-occurrence is expensive; thresholds \
                control how speculative the discovered rules may be.",
        base,
        choice_points: vec![
            ChoicePoint {
                id: "support",
                prompt: "How frequent must a pattern be to matter?",
                options: vec![
                    ChoiceOption {
                        id: "strict",
                        label: "Conservative (support >= 5%)",
                        edits: vec![],
                    },
                    ChoiceOption {
                        id: "broad",
                        label: "Exploratory (support >= 1%)",
                        edits: vec![SpecEdit::SetParam {
                            goal: 0,
                            key: "min_support".into(),
                            value: "0.01".into(),
                        }],
                    },
                ],
            },
            ChoicePoint {
                id: "scope",
                prompt: "Mine all sessions or a 25% sample?",
                options: vec![
                    ChoiceOption {
                        id: "full",
                        label: "All sessions",
                        edits: vec![],
                    },
                    ChoiceOption {
                        id: "sample",
                        label: "25% sample",
                        edits: vec![SpecEdit::PrependSample { fraction: 0.25 }],
                    },
                ],
            },
        ],
        reference_choices: vec!["strict", "full"],
    }
}

fn energy_forecast() -> Challenge {
    let base = CampaignSpec::new("load-forecast", "telemetry")
        .goal(Goal::new(Capability::Imputation).param("columns", "voltage"))
        .goal(
            Goal::new(Capability::Regression)
                .param("target", "kwh")
                .param("features", "temp_c,voltage")
                .objective(Indicator::Accuracy, Target::AtLeast(0.05)),
        )
        .objective(Indicator::RuntimeMs, Target::AtMost(120_000.0))
        .with_seed(31);
    Challenge {
        id: "energy-forecast",
        scenario_id: "energy-telemetry",
        title: "Forecast tomorrow's load",
        brief: "Grid operations need a consumption model driven by weather. \
                Sensor dropouts must be repaired first, rogue meter spikes threaten \
                the fit, and the model must explain a nontrivial share of the load \
                variance.",
        base,
        choice_points: vec![
            ChoicePoint {
                id: "repair",
                prompt: "How should missing voltage readings be repaired?",
                options: vec![
                    ChoiceOption {
                        id: "mean",
                        label: "Column mean (fast)",
                        edits: vec![SpecEdit::PinService {
                            goal: 0,
                            service: "prep.impute.mean".into(),
                        }],
                    },
                    ChoiceOption {
                        id: "median",
                        label: "Column median (robust to spikes)",
                        edits: vec![SpecEdit::PinService {
                            goal: 0,
                            service: "prep.impute.median".into(),
                        }],
                    },
                ],
            },
            // The load series contains rogue 8x spikes; least squares is
            // not robust, so keeping them collapses R² — the challenge's
            // central interference between data preparation and analytics.
            ChoicePoint {
                id: "outliers",
                prompt: "The series has rare huge spikes. Keep or drop them before fitting?",
                options: vec![
                    ChoiceOption {
                        id: "keep",
                        label: "Keep everything (the spikes are data too)",
                        edits: vec![],
                    },
                    ChoiceOption {
                        id: "drop",
                        label: "Filter implausible loads before training",
                        edits: vec![SpecEdit::InsertGoal {
                            index: 1,
                            capability: Capability::Filtering,
                            params: vec![("predicate".into(), "kwh < 3.0".into())],
                            pin: None,
                        }],
                    },
                ],
            },
        ],
        reference_choices: vec!["median", "drop"],
    }
}

fn energy_anomaly() -> Challenge {
    let base = CampaignSpec::new("load-anomalies", "telemetry")
        .goal(
            Goal::new(Capability::AnomalyDetection)
                .param("column", "kwh")
                .param("threshold", "4.0")
                .param("window", "48"),
        )
        .goal(Goal::new(Capability::Reporting).pin("viz.report.summary"))
        .objective(Indicator::RuntimeMs, Target::AtMost(120_000.0))
        .with_seed(37);
    Challenge {
        id: "energy-anomaly",
        scenario_id: "energy-telemetry",
        title: "Catch the rogue meters",
        brief: "A handful of meters occasionally report absurd loads. The \
                load curve also swings daily, so a detector that only knows \
                the global average will cry wolf every evening peak — or \
                miss real spikes hidden inside it.",
        base,
        choice_points: vec![
            ChoicePoint {
                id: "detector",
                prompt: "Compare against the global average, or the recent window?",
                options: vec![
                    ChoiceOption {
                        id: "global",
                        label: "Global z-score (cheap)",
                        edits: vec![SpecEdit::PinService {
                            goal: 0,
                            service: "analytics.anomaly.zscore".into(),
                        }],
                    },
                    ChoiceOption {
                        id: "rolling",
                        label: "Rolling window (season-aware)",
                        edits: vec![SpecEdit::PinService {
                            goal: 0,
                            service: "analytics.anomaly.rolling".into(),
                        }],
                    },
                ],
            },
            ChoicePoint {
                id: "sensitivity",
                prompt: "How sensitive should the alarm be?",
                options: vec![
                    ChoiceOption {
                        id: "balanced",
                        label: "4 standard deviations",
                        edits: vec![],
                    },
                    ChoiceOption {
                        id: "paranoid",
                        label: "2.5 standard deviations (more alerts)",
                        edits: vec![SpecEdit::SetParam {
                            goal: 0,
                            key: "threshold".into(),
                            value: "2.5".into(),
                        }],
                    },
                ],
            },
        ],
        reference_choices: vec!["rolling", "balanced"],
    }
}

fn health_compliance() -> Challenge {
    let base = CampaignSpec::new("cost-analysis", "health")
        .with_policy(toreador_privacy::policy::healthcare_default())
        .goal(
            Goal::new(Capability::Anonymization)
                .pin("privacy.kanon")
                .param("k", "5")
                .param("quasi", "age,zip,sex"),
        )
        .goal(
            Goal::new(Capability::Anonymization)
                .pin("privacy.ldiv")
                .param("l", "2")
                .param("quasi", "age,zip,sex")
                .param("sensitive", "diagnosis"),
        )
        .goal(Goal::new(Capability::Reporting).pin("viz.report.summary"))
        .objective(Indicator::PrivacyRisk, Target::AtMost(0.2))
        .objective(Indicator::Coverage, Target::AtLeast(0.5))
        .with_seed(41);
    Challenge {
        id: "health-compliance",
        scenario_id: "healthcare-records",
        title: "Release the cost statistics — legally",
        brief: "The consortium wants visit-cost statistics in the hands of \
                regional planners. The data-protection policy demands that \
                no individual be re-identifiable. Anonymising the records \
                keeps them browsable but coarsens them; a differentially \
                private release gives stronger guarantees but only noisy \
                aggregates.",
        base,
        choice_points: vec![
            ChoicePoint {
                id: "route",
                prompt: "Anonymise the records, or release only noisy aggregates?",
                options: vec![
                    ChoiceOption {
                        id: "anonymise",
                        label: "k-anonymous record release",
                        edits: vec![],
                    },
                    ChoiceOption {
                        id: "dp",
                        label: "Differentially private aggregates",
                        edits: vec![
                            SpecEdit::ReplaceGoal {
                                goal: 0,
                                capability: Capability::PrivateAggregation,
                                params: vec![
                                    ("epsilon".into(), "1.0".into()),
                                    ("column".into(), "cost".into()),
                                    ("group_by".into(), "diagnosis".into()),
                                ],
                                pin: Some("privacy.dp.aggregate".into()),
                            },
                            SpecEdit::RemoveGoal { goal: 1 },
                        ],
                    },
                ],
            },
            ChoicePoint {
                id: "strength",
                prompt: "Standard or strict protection?",
                options: vec![
                    ChoiceOption {
                        id: "standard",
                        label: "k=5 / ε=1.0",
                        edits: vec![],
                    },
                    ChoiceOption {
                        id: "strict",
                        label: "k=25 / ε=0.25",
                        edits: vec![
                            SpecEdit::SetParam {
                                goal: 0,
                                key: "k".into(),
                                value: "25".into(),
                            },
                            SpecEdit::SetParam {
                                goal: 0,
                                key: "epsilon".into(),
                                value: "0.25".into(),
                            },
                        ],
                    },
                ],
            },
        ],
        reference_choices: vec!["anonymise", "standard"],
    }
}

fn health_insight() -> Challenge {
    let base = CampaignSpec::new("patient-profile", "health")
        .goal(
            Goal::new(Capability::Classification)
                .param("target", "sex")
                .param("features", "age,visits,cost")
                .objective(Indicator::Accuracy, Target::AtLeast(0.4)),
        )
        .objective(Indicator::RuntimeMs, Target::AtMost(120_000.0))
        .prefer(Preferences::cost_first())
        .with_seed(43);
    Challenge {
        id: "health-insight",
        scenario_id: "healthcare-records",
        title: "Profile the patient population",
        brief: "Clinical planning wants a model of which demographic drives \
                visit volume and cost. Models differ in accuracy and spend; \
                scaling the features first can help some of them.",
        base,
        choice_points: vec![
            ChoicePoint {
                id: "model",
                prompt: "Which classifier family?",
                options: vec![
                    ChoiceOption {
                        id: "bayes",
                        label: "Naive Bayes (fast, independence-assuming)",
                        edits: vec![SpecEdit::PinService {
                            goal: 0,
                            service: "analytics.naivebayes".into(),
                        }],
                    },
                    ChoiceOption {
                        id: "tree",
                        label: "Decision tree (dearer, captures interactions)",
                        edits: vec![SpecEdit::PinService {
                            goal: 0,
                            service: "analytics.tree".into(),
                        }],
                    },
                ],
            },
            ChoicePoint {
                id: "prep",
                prompt: "Scale the features first?",
                options: vec![
                    ChoiceOption {
                        id: "raw",
                        label: "Use raw features",
                        edits: vec![],
                    },
                    ChoiceOption {
                        id: "scaled",
                        label: "Z-score the features",
                        edits: vec![SpecEdit::InsertGoal {
                            index: 0,
                            capability: Capability::Normalization,
                            params: vec![("columns".into(), "age,visits,cost".into())],
                            pin: Some("prep.normalize.zscore".into()),
                        }],
                    },
                ],
            },
        ],
        reference_choices: vec!["tree", "raw"],
    }
}

fn fraud_exposure() -> Challenge {
    let base = CampaignSpec::new("fraud-exposure", "transactions")
        .goal(Goal::new(Capability::Filtering).param("predicate", "amount > 400"))
        .goal(
            Goal::new(Capability::Aggregation)
                .param("group_by", "channel")
                .param("agg", "sum:amount:exposure,count:txn_id:txns"),
        )
        .goal(
            Goal::new(Capability::Reporting)
                .pin("viz.report.table")
                .param("limit", "10"),
        )
        .objective(Indicator::RuntimeMs, Target::AtMost(120_000.0))
        .objective(Indicator::Coverage, Target::AtLeast(0.99))
        .with_seed(47);
    Challenge {
        id: "fraud-exposure",
        scenario_id: "fraud-stream",
        title: "How exposed are we, right now?",
        brief: "Risk wants a running total of high-value transaction exposure \
                per channel. Transactions stream in arrival order, but some \
                carry event times a minute behind; processing them as one \
                batch hides that, processing them continuously forces a \
                choice about what to do with the stragglers.",
        base,
        choice_points: vec![
            ChoicePoint {
                id: "regime",
                prompt: "One batch over the log, or 2-second micro-batches?",
                options: vec![
                    ChoiceOption {
                        id: "batch",
                        label: "One batch run",
                        edits: vec![SpecEdit::SetMode(ProcessingMode::Batch)],
                    },
                    ChoiceOption {
                        id: "stream",
                        label: "Continuous 2s windows",
                        edits: vec![SpecEdit::SetMode(ProcessingMode::Stream {
                            window_ms: 2_000,
                        })],
                    },
                ],
            },
            ChoicePoint {
                id: "late",
                prompt: "A slice of events arrives behind the watermark. Keep or drop them?",
                options: vec![
                    ChoiceOption {
                        id: "absorb",
                        label: "Fold late events in (complete, revisable totals)",
                        edits: vec![SpecEdit::SetStreamOptions(StreamOptions {
                            allowed_lateness_ms: 500,
                            late_policy: LateDataPolicy::Absorb,
                            buffer: 4,
                        })],
                    },
                    ChoiceOption {
                        id: "drop",
                        label: "Drop late events (stable totals, undercounted)",
                        edits: vec![SpecEdit::SetStreamOptions(StreamOptions {
                            allowed_lateness_ms: 500,
                            late_policy: LateDataPolicy::Drop,
                            buffer: 4,
                        })],
                    },
                ],
            },
        ],
        reference_choices: vec!["stream", "absorb"],
    }
}

fn fraud_spikes() -> Challenge {
    let base = CampaignSpec::new("fraud-spikes", "transactions")
        .goal(
            Goal::new(Capability::AnomalyDetection)
                .param("column", "amount")
                .param("threshold", "4.0")
                .param("window", "64"),
        )
        .goal(Goal::new(Capability::Reporting).pin("viz.report.summary"))
        .objective(Indicator::RuntimeMs, Target::AtMost(120_000.0))
        .with_seed(53);
    Challenge {
        id: "fraud-spikes",
        scenario_id: "fraud-stream",
        title: "Flag the twelve-times transactions",
        brief: "Fraudulent card transactions run an order of magnitude above \
                an account's normal spend, but normal spend itself varies by \
                merchant and hour. A detector keyed to the global average \
                will miss fraud hidden under big-ticket merchants — or page \
                the on-call for every holiday booking.",
        base,
        choice_points: vec![
            ChoicePoint {
                id: "detector",
                prompt: "Compare against the global average, or the recent window?",
                options: vec![
                    ChoiceOption {
                        id: "global",
                        label: "Global z-score (cheap)",
                        edits: vec![SpecEdit::PinService {
                            goal: 0,
                            service: "analytics.anomaly.zscore".into(),
                        }],
                    },
                    ChoiceOption {
                        id: "rolling",
                        label: "Rolling window (spend-pattern-aware)",
                        edits: vec![SpecEdit::PinService {
                            goal: 0,
                            service: "analytics.anomaly.rolling".into(),
                        }],
                    },
                ],
            },
            ChoicePoint {
                id: "sensitivity",
                prompt: "How sensitive should the alarm be?",
                options: vec![
                    ChoiceOption {
                        id: "balanced",
                        label: "4 standard deviations",
                        edits: vec![],
                    },
                    ChoiceOption {
                        id: "paranoid",
                        label: "2.5 standard deviations (more alerts)",
                        edits: vec![SpecEdit::SetParam {
                            goal: 0,
                            key: "threshold".into(),
                            value: "2.5".into(),
                        }],
                    },
                ],
            },
        ],
        reference_choices: vec!["rolling", "balanced"],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::scenario;
    use toreador_core::compile::Bdaas;

    #[test]
    fn library_covers_all_verticals_with_two_each() {
        let all = challenges();
        assert_eq!(all.len(), 8);
        for s in crate::scenario::scenarios() {
            let n = all.iter().filter(|c| c.scenario_id == s.id).count();
            assert_eq!(n, 2, "scenario {} has {n} challenges", s.id);
        }
    }

    #[test]
    fn lookup_by_id() {
        assert!(challenge("ecomm-revenue").is_ok());
        assert!(challenge("nope").is_err());
    }

    #[test]
    fn every_choice_vector_of_every_challenge_compiles() {
        let bdaas = Bdaas::new();
        for c in challenges() {
            let scen = scenario(c.scenario_id).unwrap();
            let schema = scen.schema();
            for vector in c.all_choice_vectors() {
                let spec = c.instantiate(&vector).unwrap();
                let compiled = bdaas.compile(&spec, &schema, scen.default_rows);
                assert!(
                    compiled.is_ok(),
                    "challenge {} vector {vector:?} failed: {}",
                    c.id,
                    compiled.err().map(|e| e.to_string()).unwrap_or_default()
                );
            }
        }
    }

    #[test]
    fn reference_vectors_are_valid() {
        for c in challenges() {
            assert_eq!(c.reference_choices.len(), c.choice_points.len(), "{}", c.id);
            assert!(c.instantiate(&c.reference_vector()).is_ok(), "{}", c.id);
        }
    }

    #[test]
    fn every_challenge_has_real_choices() {
        for c in challenges() {
            assert!(
                c.choice_points.len() >= 2,
                "{} has too few choice points",
                c.id
            );
            for p in &c.choice_points {
                assert!(p.options.len() >= 2, "{}::{} has one option", c.id, p.id);
            }
            // Design space is at least 4 alternatives.
            assert!(c.all_choice_vectors().len() >= 4);
        }
    }

    #[test]
    fn compliance_routes_differ_in_output_shape() {
        let bdaas = Bdaas::new();
        let c = challenge("health-compliance").unwrap();
        let scen = scenario(c.scenario_id).unwrap();
        let data = scen.generate(600, 5);
        let aux = scen.auxiliary();
        let anon_spec = c
            .instantiate(&vec!["anonymise".into(), "standard".into()])
            .unwrap();
        let dp_spec = c
            .instantiate(&vec!["dp".into(), "standard".into()])
            .unwrap();
        let anon = bdaas
            .run(
                &bdaas.compile(&anon_spec, data.schema(), 600).unwrap(),
                data.clone(),
                &aux,
            )
            .unwrap();
        let dp = bdaas
            .run(
                &bdaas.compile(&dp_spec, data.schema(), 600).unwrap(),
                data,
                &aux,
            )
            .unwrap();
        assert!(anon.output.schema().contains("age"), "record-level release");
        assert!(
            dp.output.schema().contains("noisy_sum"),
            "aggregate release"
        );
        assert!(anon.post_verdict.as_ref().unwrap().compliant);
        assert!(dp.post_verdict.as_ref().unwrap().compliant);
    }

    #[test]
    fn fraud_stream_run_accounts_for_late_data() {
        let bdaas = Bdaas::new();
        let c = challenge("fraud-exposure").unwrap();
        let scen = scenario(c.scenario_id).unwrap();
        let data = scen.generate(3_000, 9);
        let aux = scen.auxiliary();
        let run = |vector: Vec<String>| {
            let spec = c.instantiate(&vector).unwrap();
            let compiled = bdaas.compile(&spec, data.schema(), 3_000).unwrap();
            bdaas.run(&compiled, data.clone(), &aux).unwrap()
        };
        let absorb = run(vec!["stream".into(), "absorb".into()]);
        let dropped = run(vec!["stream".into(), "drop".into()]);
        let counters = |outcome: &toreador_core::compile::CampaignOutcome| {
            outcome
                .engine_traces
                .iter()
                .fold(toreador_dataflow::trace::Counters::default(), |acc, t| {
                    acc.merge(&t.counters())
                })
        };
        let ta = counters(&absorb);
        let td = counters(&dropped);
        assert!(
            ta.count("streaming.batches") > 0,
            "continuous loop journalled acks"
        );
        // The generator plants ~5% of rows a minute behind their arrival
        // slot; with 500 ms allowed lateness every one of them is late.
        let (absorbed, dropped) = ("streaming.late_absorbed", "streaming.late_dropped");
        assert!(ta.count(absorbed) > 0, "absorb counts late rows: {ta:?}");
        assert_eq!(ta.count(dropped), 0);
        assert!(td.count(dropped) > 0, "drop counts late rows: {td:?}");
        assert_eq!(td.count(absorbed), 0);
        // Same stream, same watermark policy: identical late populations.
        assert_eq!(ta.count(absorbed), td.count(dropped));
    }

    #[test]
    fn briefs_are_substantial() {
        for c in challenges() {
            assert!(c.brief.len() > 100, "{} brief too thin", c.id);
        }
    }
}
