//! Clinic federation — the paper's motivating healthcare scenario (Fig. 1)
//! built with the public API, end to end and from scratch:
//!
//! * a custom clinical schema (patients, drugs, procedures, diseases with
//!   prescribed/underwent/diagnosed/interacts links);
//! * a city-wide latent-factor heterograph;
//! * specialised clinics as non-IID clients (a heart-surgery clinic records
//!   mostly procedures, a psychiatric clinic mostly diagnoses);
//! * FedDA training of a global link predictor no clinic could learn alone.
//!
//! Run with: `cargo run -p fedda --release --example clinic_fl`

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::float_cmp
)]

use fedda::data::{latent, non_iidness, partition_non_iid, PartitionConfig};
use fedda::fl::{baselines, FedDa, FlConfig, FlSystem};
use fedda::hetgraph::{split::split_edges, Schema};
use fedda::hgn::{HgnConfig, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. The clinical heterograph schema of the paper's Fig. 1.
    let mut schema = Schema::new();
    let patient = schema.add_node_type("patient", 24);
    let drug = schema.add_node_type("drug", 16);
    let procedure = schema.add_node_type("procedure", 16);
    let disease = schema.add_node_type("disease", 16);
    schema.add_edge_type("prescribed", patient, drug, false);
    schema.add_edge_type("underwent", patient, procedure, false);
    schema.add_edge_type("diagnosed", patient, disease, false);
    schema.add_edge_type("interacts", patient, patient, true);

    // 2. The (conceptual) city-wide graph: ~400 patients, shared drug /
    //    procedure / disease vocabularies.
    let cfg =
        latent::LatentGraphConfig::new(schema, vec![400, 60, 50, 70], vec![2400, 1800, 2600, 1200]);
    let city = latent::generate(&cfg, 42);
    println!(
        "city-wide clinical heterograph: {} nodes, {} links across {} link types",
        city.graph.num_nodes(),
        city.graph.num_edges(),
        city.graph.schema().num_edge_types()
    );

    // 3. Hold out links for the city-level evaluation task, then synthesise
    //    six specialised clinics (each over-samples 2 of the 4 link types).
    let mut rng = StdRng::seed_from_u64(7);
    let split = split_edges(&city.graph, 0.15, &mut rng);
    let pcfg = PartitionConfig {
        num_clients: 6,
        r_a: 0.35,
        r_b: 0.05,
        specialized_types_per_client: 2,
        seed: 11,
    };
    let clinics = partition_non_iid(&split.train, &pcfg);
    println!(
        "six clinics, mean pairwise non-IIDness (TV distance): {:.3}\n",
        non_iidness(&clinics)
    );
    for (i, clinic) in clinics.iter().enumerate() {
        let names: Vec<&str> = clinic
            .specialized
            .iter()
            .map(|&t| clinic.graph.schema().edge_type(t).name.as_str())
            .collect();
        println!(
            "  clinic {i}: {} local links, specialised in {}",
            clinic.num_edges(),
            names.join(" + ")
        );
    }

    // 4. Federate with FedDA (Explore) and compare against training alone.
    let fl_cfg = FlConfig {
        rounds: 12,
        model: HgnConfig {
            hidden_dim: 8,
            num_layers: 2,
            num_heads: 2,
            ..Default::default()
        },
        train: TrainConfig {
            local_epochs: 2,
            lr: 5e-3,
            ..Default::default()
        },
        eval_negatives: 5,
        seed: 1,
        parallel: true,
        ..Default::default()
    };
    let mut system = FlSystem::new(&split.train, &split.test, clinics, fl_cfg);

    let local = baselines::run_local_only(&system);
    println!(
        "\nisolated clinics:  mean test AUC {:.4} (± {:.4})",
        local.auc_summary().mean,
        local.auc_summary().std
    );

    let result = FedDa::explore().run(&mut system);
    println!(
        "FedDA federation:  final test AUC {:.4} (best {:.4}), {} parameter units uplinked",
        result.final_eval.roc_auc,
        result.best_auc(),
        result.comm.total_uplink_units()
    );
    println!("\nThe federated model generalises across specialities no single clinic covers.");
}
