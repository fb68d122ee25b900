//! The federation's memory model, part one: clients registered with equal
//! data share one immutable shard (`FlSystem::with_model`): one `Arc` of
//! `ClientData` in every such client's `data`.
//!
//! Sharing is found by content, not by where the data came from, and it is
//! invisible in the results: a federation of `M = 4·B` clients replicated
//! cyclically from `B` partitions produces the bits of the same federation
//! registered with every replica's graph rebuilt edge by edge — curve, comm
//! ledger, activation trace, fault list and final parameters — under both
//! runtimes with the `q8` codec on. Each client keeps its own seed, so
//! replicas of one shard still train on different RNG streams.

mod common;

use fedda_data::{partition_non_iid, ClientData, PartitionConfig};
use fedda_fl::{AsyncConfig, Compression, FedAvg, FedDa, FlProtocol, FlSystem, RuntimeMode};
use fedda_hetgraph::split::EdgeSplit;
use fedda_hetgraph::{EdgeList, HeteroGraph, NodeStore};
use std::sync::Arc;

/// Distinct partitions.
const B: usize = 2;
/// Registered clients.
const M: usize = 4 * B;
const SCALE: f64 = 0.0012;
const SEED: u64 = 77;

fn system(split: &EdgeSplit, clients: Vec<ClientData>) -> FlSystem {
    common::system(split, clients, SEED, |cfg| {
        cfg.rounds = 3;
        cfg.workers = Some(2);
        cfg.compression = Some(Compression::QuantI8);
    })
}

/// Distinct shards: clients that hold one `Arc` of data are one shard.
fn shards(sys: &FlSystem) -> usize {
    let mut held: Vec<*const ClientData> =
        (sys.clients.iter()).map(|c| Arc::as_ptr(&c.data)).collect();
    held.sort_unstable();
    held.dedup();
    held.len()
}

/// The edges of `g` pushed one by one into fresh lists: no storage in common
/// with the graph they came from.
fn copied_edge_lists(g: &HeteroGraph) -> Vec<EdgeList> {
    g.schema()
        .edge_type_ids()
        .map(|t| {
            let edges = g.edges_of_type(t);
            let mut list = EdgeList::new();
            for (&s, &d) in edges.src.iter().zip(&edges.dst) {
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

#[test]
fn replicated_federation_equals_the_rebuilt_one_bit_for_bit() {
    let (split, base) = common::dataset(SCALE, SEED, B);
    let replicated = || (0..M).map(|i| base[i % B].clone()).collect::<Vec<_>>();
    let from_scratch = || (0..M).map(|i| rebuilt(&base[i % B])).collect::<Vec<_>>();
    type MakeProtocol = fn() -> Box<dyn FlProtocol>;
    let protocols: [(&str, MakeProtocol); 2] = [
        ("FedDA-Explore", || Box::new(FedDa::explore())),
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
                assert_eq!(shards(&sys), B, "{name}, {mode:?}");
                let result = fedda_fl::run(mode, protocol().as_mut(), &mut sys, None)
                    .expect("valid configuration");
                common::fingerprint(&result, &sys)
            };
            let shared = run(replicated());
            assert_eq!(shared.curve.len(), 3, "{name}, {mode:?}");
            assert_eq!(shared, run(from_scratch()), "{name}, {mode:?}");
        }
    }
}

#[test]
fn replicas_hold_one_shard_and_their_own_stream() {
    let (split, base) = common::dataset(SCALE, SEED, B);
    let sys = system(&split, (0..M).map(|i| rebuilt(&base[i % B])).collect());
    assert_eq!(shards(&sys), B);
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
    let (split, base) = common::dataset(SCALE, SEED, B);
    // The partitioner's own output: every client is its own shard.
    let g = &split.train;
    let pcfg = PartitionConfig::paper_defaults(M, g.schema().num_edge_types(), SEED);
    assert_eq!(shards(&system(&split, partition_non_iid(g, &pcfg))), M);

    let original = &base[0];
    let mut other_task = original.clone();
    other_task.specialized.reverse();
    assert_ne!(other_task.specialized, original.specialized);

    // One edge rewired within its type: every per-type count still agrees.
    let t = usize::from(original.specialized[0].0);
    let mut lists = copied_edge_lists(&original.graph);
    lists[t].dst[0] = lists[t].dst[1];
    let one_edge = ClientData {
        graph: HeteroGraph::from_edges(Arc::clone(original.graph.nodes()), lists),
        specialized: original.specialized.clone(),
    };
    assert_eq!(one_edge.graph.edge_counts(), original.graph.edge_counts());
    assert!(one_edge != *original);

    // The same edges over a universe with one feature changed.
    let nodes = original.graph.nodes();
    let schema = original.graph.schema();
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
    assert_eq!(shards(&sys), 4, "only the verbatim copy merges");
    assert!(Arc::ptr_eq(&sys.clients[0].data, &sys.clients[4].data));
}
