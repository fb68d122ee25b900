//! The federation's memory model, part one: clients registered with equal
//! data share one immutable shard (`FlSystem::with_model`).
//!
//! Sharing is found by content, not by where the data came from, and it is
//! invisible in the results: a federation of `M = 4·B` clients replicated
//! cyclically from `B` partitions produces the bits of the same federation
//! registered with every replica's graph rebuilt edge by edge — curve, comm
//! ledger, activation trace, fault list and final parameters — under both
//! runtimes with the `q8` codec on. Each client keeps its own seed, so
//! replicas of one shard still train on different RNG streams.

use fedda_data::{dblp_like, partition_non_iid, ClientData, PartitionConfig, PresetOptions};
use fedda_fl::{
    AsyncConfig, Compression, FedAvg, FedDa, FlConfig, FlProtocol, FlSystem, RunResult, RuntimeMode,
};
use fedda_hetgraph::split::{split_edges, EdgeSplit};
use fedda_hetgraph::{EdgeList, HeteroGraph, NodeStore};
use fedda_hgn::{HgnConfig, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Distinct partitions.
const B: usize = 2;
/// Registered clients.
const M: usize = 4 * B;
const SEED: u64 = 77;

fn split_and_partitions() -> (EdgeSplit, Vec<ClientData>) {
    let g = dblp_like(&PresetOptions {
        scale: 0.0012,
        seed: SEED,
        ..Default::default()
    })
    .graph;
    let mut rng = StdRng::seed_from_u64(SEED);
    let split = split_edges(&g, 0.15, &mut rng);
    let pcfg = PartitionConfig::paper_defaults(B, g.schema().num_edge_types(), SEED);
    let base = partition_non_iid(&split.train, &pcfg);
    (split, base)
}

fn system(split: &EdgeSplit, clients: Vec<ClientData>) -> FlSystem {
    let cfg = FlConfig {
        rounds: 3,
        model: HgnConfig {
            hidden_dim: 4,
            num_layers: 1,
            num_heads: 2,
            edge_emb_dim: 4,
            ..Default::default()
        },
        train: TrainConfig {
            local_epochs: 1,
            lr: 5e-3,
            ..Default::default()
        },
        eval_negatives: 3,
        seed: SEED,
        workers: Some(2),
        compression: Some(Compression::QuantI8),
        ..Default::default()
    };
    FlSystem::new(&split.train, &split.test, clients, cfg)
}

/// The edges of `g` pushed one by one into fresh lists: no storage in common
/// with the graph they came from.
fn copied_edge_lists(g: &HeteroGraph) -> Vec<EdgeList> {
    g.schema()
        .edge_type_ids()
        .map(|t| {
            let mut list = EdgeList::new();
            for (s, d) in g.edges_of_type(t).iter() {
                list.push(s, d);
            }
            list
        })
        .collect()
}

/// `data` with its graph assembled again from nothing but the edges.
fn rebuilt(data: &ClientData) -> ClientData {
    let g = &data.graph;
    ClientData {
        graph: HeteroGraph::from_edges(Arc::clone(g.nodes()), copied_edge_lists(g)),
        specialized: data.specialized.to_vec(),
    }
}

/// Everything observable about a run, in bit-exact form.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    curve: Vec<(usize, u64, u64)>,
    comm: Vec<fedda_fl::RoundComm>,
    activation: Vec<fedda_fl::ActivationSnapshot>,
    faults: Vec<fedda_fl::FaultObserved>,
    final_params: Vec<u32>,
}

fn fingerprint(result: &RunResult, system: &FlSystem) -> Fingerprint {
    Fingerprint {
        curve: result
            .curve
            .iter()
            .map(|e| (e.round, e.roc_auc.to_bits(), e.mrr.to_bits()))
            .collect(),
        comm: result.comm.rounds().to_vec(),
        activation: result.activation_trace.clone(),
        faults: result.faults.clone(),
        final_params: system
            .global
            .flatten()
            .iter()
            .map(|x| x.to_bits())
            .collect(),
    }
}

#[test]
fn replicated_federation_equals_the_rebuilt_one_bit_for_bit() {
    let (split, base) = split_and_partitions();
    let replicated = || (0..M).map(|i| base[i % B].clone()).collect::<Vec<_>>();
    let from_scratch = || (0..M).map(|i| rebuilt(&base[i % B])).collect::<Vec<_>>();
    type MakeProtocol = fn() -> Box<dyn FlProtocol>;
    let protocols: [(&str, MakeProtocol); 2] = [
        ("FedDA-Explore", || Box::new(FedDa::explore().protocol())),
        ("FedAvg", || Box::new(FedAvg::vanilla())),
    ];
    // Buffered with K below the dispatch size: reports cross versions.
    let modes = [
        RuntimeMode::Sync,
        RuntimeMode::Async(AsyncConfig { k: 3, gamma: 0.9 }),
    ];
    for (name, protocol) in protocols {
        for mode in &modes {
            let run = |clients: Vec<ClientData>| {
                let mut sys = system(&split, clients);
                assert_eq!(sys.num_clients(), M);
                assert_eq!(sys.num_shards(), B, "{name}, {mode:?}");
                let result = fedda_fl::run(mode, protocol().as_mut(), &mut sys, None)
                    .expect("valid configuration");
                fingerprint(&result, &sys)
            };
            let shared = run(replicated());
            assert_eq!(shared.curve.len(), 3, "{name}, {mode:?}");
            assert_eq!(shared, run(from_scratch()), "{name}, {mode:?}");
        }
    }
}

#[test]
fn replicas_hold_one_shard_and_their_own_stream() {
    let (split, base) = split_and_partitions();
    let sys = system(&split, (0..M).map(|i| rebuilt(&base[i % B])).collect());
    assert_eq!(sys.num_shards(), B);
    for (i, client) in sys.clients.iter().enumerate() {
        let first = &sys.clients[i % B];
        assert!(Arc::ptr_eq(&client.data, &first.data), "client {i}");
        assert!(Arc::ptr_eq(&client.view, &first.view), "client {i}");
        assert!(
            Arc::ptr_eq(&client.positives, &first.positives),
            "client {i}"
        );
    }
    assert!(!Arc::ptr_eq(&sys.clients[0].view, &sys.clients[1].view));
    // One shard, two clients, two seeds: the same data trains differently.
    let returns = sys.run_local_round_with(&[0, B], 0, &[]);
    assert_ne!(returns[0].params.flatten(), returns[1].params.flatten());
}

#[test]
fn distinct_data_is_never_merged() {
    let (split, base) = split_and_partitions();
    // The partitioner's own output: every client is its own shard.
    let g = &split.train;
    let pcfg = PartitionConfig::paper_defaults(M, g.schema().num_edge_types(), SEED);
    assert_eq!(system(&split, partition_non_iid(g, &pcfg)).num_shards(), M);

    let original = &base[0];
    let mut other_task = original.clone();
    other_task.specialized.reverse();
    assert_ne!(other_task.specialized, original.specialized);

    // One edge rewired within its type: every per-type count still agrees.
    let mut one_edge = original.clone();
    let t = original.specialized[0];
    let list = one_edge.graph.edges_of_type_mut(t);
    list.dst[0] = list.dst[1];
    assert_eq!(one_edge.graph.edge_counts(), original.graph.edge_counts());
    assert!(one_edge != *original);

    // The same edges over a universe with one feature changed.
    let nodes = original.graph.nodes();
    let schema = nodes.schema();
    let counts: Vec<usize> = schema
        .node_type_ids()
        .map(|nt| nodes.num_nodes_of_type(nt))
        .collect();
    let mut features: Vec<Vec<f32>> = schema
        .node_type_ids()
        .map(|nt| nodes.features_of_type(nt).to_vec())
        .collect();
    features[0][0] += 1.0;
    let other_universe = Arc::new(NodeStore::new(schema.clone(), &counts, features));
    let other_store = ClientData {
        graph: HeteroGraph::from_edges(other_universe, copied_edge_lists(&original.graph)),
        specialized: original.specialized.clone(),
    };

    let clients = vec![
        original.clone(),
        other_task,
        one_edge,
        other_store,
        original.clone(),
    ];
    let sys = system(&split, clients);
    assert_eq!(sys.num_shards(), 4, "only the verbatim copy merges");
    assert!(Arc::ptr_eq(&sys.clients[0].data, &sys.clients[4].data));
}
