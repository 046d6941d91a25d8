//! Cluster configuration for deployed REX nodes.
//!
//! One [`ClusterConfig`] file describes the whole deployment — the
//! node-id → socket-address map plus every parameter needed to rebuild
//! the fleet deterministically — and every process reads the *same* file.
//! Determinism is the point: each process derives the full fleet (data
//! partition, topology, seeds) locally and keeps only its own node, so no
//! coordinator has to ship state around. The fleet is the recipe
//! [`rex_core::builder`] writes out once (each step and the seed that
//! feeds it); [`ClusterConfig::scenario`] is this file's part of it.
//!
//! The format is a TOML subset parsed without external crates: `#`
//! comments, `key = value` lines — with integer, float, boolean,
//! quoted-string and single-line string-array values — plus one
//! optional `[faults]` section describing a [`FaultPlan`] (see
//! [`ClusterConfig::faults`] for the key syntax). Every process parses
//! the same plan, so a multi-process cluster replays the same fault
//! schedule the in-process backends do. [`ClusterConfig::to_toml`]
//! round-trips through [`ClusterConfig::parse`]. A key the parser does
//! not know — at the top level or inside a section — is an error naming
//! it, never a silent default.

use rex_core::builder::Scenario;
use rex_core::config::{GossipAlgorithm, ProtocolConfig, SharingMode, WireCodec};
use rex_core::membership::MembershipPlan;
use rex_data::SyntheticConfig;
use rex_net::fault::{CrashSpec, FaultPlan, LinkFaults, PartitionSpec};
use rex_topology::{TopologySpec, SMALL_WORLD_K};
use std::collections::HashMap;
use std::net::SocketAddr;

/// How the deployed node loop schedules its epochs
/// (`driver = "lockstep" | "bounded-async"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeDriver {
    /// Barrier-synchronized rounds: every epoch runs between two wire
    /// barriers, bit-identical with the in-process engine drivers. The
    /// default.
    Lockstep,
    /// Bounded-staleness rounds (`staleness_k = k`): no per-epoch wire
    /// barrier — a node proceeds once shares from ≥ k distinct
    /// neighbours are consumable, applying stragglers' shares late
    /// under the canonical-order rule. See
    /// [`rex_core::round::run_node_loop_async`] for the determinism contract.
    BoundedAsync {
        /// Minimum distinct neighbour shares consumed per epoch.
        k: usize,
    },
}

/// User-sharding parameters, from the optional `[sharding]` section.
///
/// When present, every node hosts a shard of `users_per_node` virtual
/// users instead of the legacy one-slot-per-partition grouping:
///
/// ```toml
/// [sharding]
/// users_per_node = 1024          # required; >= 1, and
///                                # users_per_node x nodes == num_users
/// ```
///
/// Node `i` hosts the contiguous user rows
/// `[i * users_per_node, (i + 1) * users_per_node)`.
///
/// `users_per_node = 1` is the determinism escape hatch: width-1 shards
/// normalize away at node construction, so the fleet is bit-identical to
/// an unsharded per-user deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardingConfig {
    /// Virtual users hosted per node (the user-row block width).
    pub users_per_node: u32,
}

/// Online serving, from the optional `[serve]` section.
///
/// When present, every node runs a serve thread next to its training
/// loop: after each executed epoch the trainer publishes an immutable
/// model snapshot (see [`rex_core::serve::SnapshotQueue`]) and the serve
/// thread answers a seeded top-k query stream against it, folding every
/// answer into a per-node serve digest reported in the node summary:
///
/// ```toml
/// [serve]
/// queries_per_epoch = 32   # top-k queries answered per snapshot
/// top_k = 10               # result-set size
/// seed = 24119             # query-stream seed (node i uses seed + i)
/// verify_snapshots = false # recompute + check each snapshot digest
/// ```
///
/// Each query skips the items its user already rated in the node's
/// initial local store.
///
/// Serving is read-only and off the wire: enabling the section changes
/// no protocol traffic and no training trajectory, and the serve digest
/// is a pure function of the cluster seeds — bit-identical across
/// backends, drivers, and deployment shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Top-k queries answered per published snapshot (≥ 1).
    pub queries_per_epoch: usize,
    /// Result-set size per query (≥ 1).
    pub top_k: usize,
    /// Query-stream seed; node `i` streams from `seed + i`.
    pub seed: u64,
    /// Digest each snapshot's wire bytes at publish, recompute the
    /// digest on the serve thread and fail the run on mismatch
    /// (torn-read detector; costs two passes over the model per epoch,
    /// one on each side — with this off, neither side hashes).
    pub verify_snapshots: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queries_per_epoch: 32,
            top_k: 10,
            seed: 0x5E37,
            verify_snapshots: false,
        }
    }
}

/// Everything a deployed node needs to know about its cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Socket address of every node, indexed by node id.
    pub nodes: Vec<String>,
    /// Epoch budget.
    pub epochs: usize,
    /// What nodes share ("raw" = REX, "model" = MS).
    pub sharing: SharingMode,
    /// Neighbour selection ("dpsgd" | "rmw").
    pub algorithm: GossipAlgorithm,
    /// Topology over the fleet ("full" | "smallworld" | "er" | "ring").
    pub topology: TopologySpec,
    /// Topology generation seed.
    pub topology_seed: u64,
    /// Synthetic dataset shape.
    pub num_users: u32,
    /// Items in the dataset.
    pub num_items: u32,
    /// Ratings in the dataset.
    pub num_ratings: usize,
    /// Dataset generation seed.
    pub data_seed: u64,
    /// Train/test split seed.
    pub split_seed: u64,
    /// Protocol seed (node `i` uses `protocol_seed + i`).
    pub protocol_seed: u64,
    /// Raw points shared per epoch (REX mode).
    pub points_per_epoch: usize,
    /// SGD steps per epoch.
    pub steps_per_epoch: usize,
    /// Wire codec (`codec = "dense" | "sparse"`). Every node of a cluster
    /// must configure the same codec: sparse receivers decode model
    /// deltas against the fleet's shared initial model.
    pub codec: WireCodec,
    /// Run inside simulated SGX enclaves (attestation + sealing).
    pub sgx: bool,
    /// REX processes packed per SGX platform.
    pub processes_per_platform: usize,
    /// Infrastructure seed (attestation keys, platform provisioning).
    pub infra_seed: u64,
    /// Fault schedule, from the optional `[faults]` section:
    ///
    /// ```toml
    /// [faults]
    /// seed = 7            # fate-hash seed
    /// drop = 0.1          # default per-link rates
    /// delay = 0.0
    /// duplicate = 0.0
    /// reorder = 0.0
    /// links = ["0>1:0.5/0/0/0"]  # from>to:drop/delay/duplicate/reorder
    /// partitions = ["2-4:0|1|2"] # epochs [2,4), group {0,1,2} vs rest
    /// crashes = ["3@2", "5@4-7"] # node@crash or node@crash-rejoin
    /// ```
    ///
    /// `None` when the section is absent: a fully reliable fabric.
    pub faults: Option<FaultPlan>,
    /// Dynamic-membership schedule, from the optional `[membership]`
    /// section:
    ///
    /// ```toml
    /// [membership]
    /// seed = 11              # overlay-repair bridge seed
    /// bootstrap_points = 80  # sponsor's raw-share sample per joiner
    /// joins = ["4@3", "5@6<2"]  # node@epoch, optional <sponsor
    /// leaves = ["1@8"]          # node@epoch
    /// ```
    ///
    /// Every process parses the same schedule, so view transitions —
    /// joins with attested state bootstrap, graceful leaves with live
    /// topology rewiring — replay bit-for-bit across the whole cluster.
    /// `None` when the section is absent: the node set is static.
    pub membership: Option<MembershipPlan>,
    /// User-sharding parameters, from the optional `[sharding]` section
    /// (see [`ShardingConfig`]). `None` when the section is absent: the
    /// legacy multi-user grouping, exactly as before sharding existed.
    pub sharding: Option<ShardingConfig>,
    /// Verifiable-epochs wire audit: on when the file has an `[audit]`
    /// section, which takes no keys:
    ///
    /// ```toml
    /// [audit]
    /// ```
    ///
    /// Every node then signs a chained SHA-256 digest of its post-epoch
    /// model each epoch (see [`rex_core::commitment`]), ships it to its
    /// connected peers as a `Commitment` control frame, and HMAC-checks
    /// every commitment it receives. Commitments ride the control plane:
    /// they never count toward protocol payload traffic, so the audit
    /// does not perturb the cross-backend byte-identity contract. A
    /// commitment whose tag fails verification aborts the run with an
    /// error naming the sender — the operator then replays it offline
    /// with `rex-node --challenge`. Off (no commitment traffic) without
    /// the section.
    pub audit: bool,
    /// Online serving, from the optional `[serve]` section (see
    /// [`ServeConfig`]). `None` when the section is absent: no serve
    /// thread, the training-only behaviour.
    pub serve: Option<ServeConfig>,
    /// Epoch scheduling of the deployed loop (`driver = "lockstep"` —
    /// the default — or `"bounded-async"` with `staleness_k`).
    /// Bounded-async requires `algorithm = "dpsgd"` (every neighbour
    /// ships a share every epoch, which is what makes "wait for k
    /// shares" deadlock-free) and is incompatible with `[faults]` and
    /// `[membership]` sections: those schedules are keyed to
    /// synchronized round boundaries the async loop does not run.
    pub driver: NodeDriver,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        // The fleet's fields take the one recipe's defaults.
        let s = Scenario::default();
        ClusterConfig {
            nodes: Vec::new(),
            epochs: 10,
            sharing: s.protocol.sharing,
            algorithm: s.protocol.algorithm,
            topology: s.topology,
            topology_seed: s.topology_seed,
            num_users: s.dataset.num_users,
            num_items: s.dataset.num_items,
            num_ratings: s.dataset.num_ratings,
            data_seed: s.dataset.seed,
            split_seed: s.split_seed,
            protocol_seed: s.protocol.seed,
            points_per_epoch: s.protocol.points_per_epoch,
            steps_per_epoch: s.protocol.steps_per_epoch,
            codec: s.protocol.codec,
            sgx: false,
            processes_per_platform: 1,
            infra_seed: 0xE0,
            faults: None,
            membership: None,
            sharding: None,
            audit: false,
            serve: None,
            driver: NodeDriver::Lockstep,
        }
    }
}

/// A parsed TOML-subset value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Int(u64),
    Float(f64),
    Bool(bool),
    List(Vec<String>),
}

fn parse_value(raw: &str) -> Result<Value, String> {
    let raw = raw.trim();
    if raw == "true" {
        return Ok(Value::Bool(true));
    }
    if raw == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(body) = raw.strip_prefix('[') {
        let body = body
            .strip_suffix(']')
            .ok_or_else(|| format!("unterminated array: {raw}"))?;
        let mut items = Vec::new();
        for piece in body.split(',') {
            let piece = piece.trim();
            if piece.is_empty() {
                continue;
            }
            items.push(parse_quoted(piece)?);
        }
        return Ok(Value::List(items));
    }
    if raw.starts_with('"') {
        return Ok(Value::Str(parse_quoted(raw)?));
    }
    if let Ok(v) = raw.parse::<u64>() {
        return Ok(Value::Int(v));
    }
    raw.parse::<f64>()
        .map(Value::Float)
        .map_err(|_| format!("unparseable value: {raw}"))
}

fn parse_quoted(raw: &str) -> Result<String, String> {
    let body = raw
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("expected quoted string: {raw}"))?;
    if body.contains('"') {
        return Err(format!("embedded quote in: {raw}"));
    }
    Ok(body.to_string())
}

/// Strips a `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_quotes = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_quotes = !in_quotes,
            '#' if !in_quotes => return &line[..i],
            _ => {}
        }
    }
    line
}

/// The file's `key = value` pairs, each with the line it sits on. The
/// `get_*` helpers *take* what they read, so whatever is left once
/// every section has been assembled is a key nothing knows.
type KeyMap = HashMap<String, (usize, Value)>;

/// Parses the flat `key = value` map. `[section]` headers prefix the
/// following keys with `section.`; the set of section names seen is
/// returned alongside (a section can be present yet empty).
fn parse_map(text: &str) -> Result<(KeyMap, Vec<String>), String> {
    let mut map = HashMap::new();
    let mut sections = Vec::new();
    let mut prefix = String::new();
    for (lineno, raw_line) in text.lines().enumerate() {
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[') {
            let name = name
                .strip_suffix(']')
                .ok_or_else(|| format!("line {}: unterminated section header", lineno + 1))?
                .trim();
            if name != "faults"
                && name != "membership"
                && name != "sharding"
                && name != "audit"
                && name != "serve"
            {
                return Err(format!("line {}: unknown section [{name}]", lineno + 1));
            }
            prefix = format!("{name}.");
            sections.push(name.to_string());
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected key = value", lineno + 1))?;
        let key = format!("{prefix}{}", key.trim());
        let value = parse_value(value).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if map.insert(key.clone(), (lineno + 1, value)).is_some() {
            return Err(format!("line {}: duplicate key {key}", lineno + 1));
        }
    }
    Ok((map, sections))
}

/// Removes and returns `key`'s value.
fn take(map: &mut KeyMap, key: &str) -> Option<Value> {
    map.remove(key).map(|(_, value)| value)
}

/// The error for the first (by line) key no parser took: a misspelt key
/// must not run the default in its place.
fn reject_unknown_keys(map: &KeyMap) -> Result<(), String> {
    let Some((key, (line, _))) = map.iter().min_by_key(|(_, (line, _))| *line) else {
        return Ok(());
    };
    Err(match key.split_once('.') {
        Some((section, key)) => format!("line {line}: unknown key {key} in [{section}]"),
        None => format!("line {line}: unknown top-level key {key}"),
    })
}

fn get_int<T: TryFrom<u64>>(map: &mut KeyMap, key: &str, default: u64) -> Result<T, String> {
    let raw = match take(map, key) {
        Some(Value::Int(v)) => v,
        Some(other) => return Err(format!("{key}: expected integer, got {other:?}")),
        None => default,
    };
    T::try_from(raw).map_err(|_| format!("{key}: {raw} out of range"))
}

fn get_bool(map: &mut KeyMap, key: &str, default: bool) -> Result<bool, String> {
    match take(map, key) {
        Some(Value::Bool(v)) => Ok(v),
        Some(other) => Err(format!("{key}: expected bool, got {other:?}")),
        None => Ok(default),
    }
}

fn get_str(map: &mut KeyMap, key: &str, default: &str) -> Result<String, String> {
    match take(map, key) {
        Some(Value::Str(v)) => Ok(v),
        Some(other) => Err(format!("{key}: expected string, got {other:?}")),
        None => Ok(default.to_string()),
    }
}

fn get_float(map: &mut KeyMap, key: &str, default: f64) -> Result<f64, String> {
    match take(map, key) {
        Some(Value::Float(v)) => Ok(v),
        Some(Value::Int(v)) => Ok(v as f64),
        Some(other) => Err(format!("{key}: expected number, got {other:?}")),
        None => Ok(default),
    }
}

fn get_list(map: &mut KeyMap, key: &str) -> Result<Vec<String>, String> {
    match take(map, key) {
        Some(Value::List(items)) => Ok(items),
        Some(other) => Err(format!("{key}: expected string array, got {other:?}")),
        None => Ok(Vec::new()),
    }
}

/// Parses a `from>to:drop/delay/duplicate/reorder` link override.
fn parse_link_override(raw: &str) -> Result<(usize, usize, LinkFaults), String> {
    let err = || format!("links: expected \"from>to:drop/delay/dup/reorder\", got {raw}");
    let (link, rates) = raw.split_once(':').ok_or_else(err)?;
    let (from, to) = link.split_once('>').ok_or_else(err)?;
    let from = from.trim().parse::<usize>().map_err(|_| err())?;
    let to = to.trim().parse::<usize>().map_err(|_| err())?;
    let parts: Vec<f64> = rates
        .split('/')
        .map(|r| r.trim().parse::<f64>().map_err(|_| err()))
        .collect::<Result<_, _>>()?;
    let [drop, delay, duplicate, reorder] = parts.as_slice() else {
        return Err(err());
    };
    Ok((
        from,
        to,
        LinkFaults {
            drop: *drop,
            delay: *delay,
            duplicate: *duplicate,
            reorder: *reorder,
        },
    ))
}

/// Parses a `start-end:a|b|c` partition spec.
fn parse_partition(raw: &str) -> Result<PartitionSpec, String> {
    let err = || format!("partitions: expected \"start-end:a|b|c\", got {raw}");
    let (span, group) = raw.split_once(':').ok_or_else(err)?;
    let (start, end) = span.split_once('-').ok_or_else(err)?;
    let start = start.trim().parse::<usize>().map_err(|_| err())?;
    let end = end.trim().parse::<usize>().map_err(|_| err())?;
    let group: Vec<usize> = group
        .split('|')
        .map(|v| v.trim().parse::<usize>().map_err(|_| err()))
        .collect::<Result<_, _>>()?;
    Ok(PartitionSpec { start, end, group })
}

/// Parses a `node@crash` or `node@crash-rejoin` crash spec.
fn parse_crash(raw: &str) -> Result<CrashSpec, String> {
    let err = || format!("crashes: expected \"node@crash\" or \"node@crash-rejoin\", got {raw}");
    let (node, span) = raw.split_once('@').ok_or_else(err)?;
    let node = node.trim().parse::<usize>().map_err(|_| err())?;
    let (crash_epoch, rejoin_epoch) = match span.split_once('-') {
        Some((crash, rejoin)) => (
            crash.trim().parse::<usize>().map_err(|_| err())?,
            Some(rejoin.trim().parse::<usize>().map_err(|_| err())?),
        ),
        None => (span.trim().parse::<usize>().map_err(|_| err())?, None),
    };
    Ok(CrashSpec {
        node,
        crash_epoch,
        rejoin_epoch,
    })
}

/// Parses a `node@epoch` or `node@epoch<sponsor` join spec.
fn parse_join(raw: &str) -> Result<(usize, usize, Option<usize>), String> {
    let err = || format!("joins: expected \"node@epoch\" or \"node@epoch<sponsor\", got {raw}");
    let (node, rest) = raw.split_once('@').ok_or_else(err)?;
    let node = node.trim().parse::<usize>().map_err(|_| err())?;
    let (epoch, sponsor) = match rest.split_once('<') {
        Some((epoch, sponsor)) => (
            epoch.trim().parse::<usize>().map_err(|_| err())?,
            Some(sponsor.trim().parse::<usize>().map_err(|_| err())?),
        ),
        None => (rest.trim().parse::<usize>().map_err(|_| err())?, None),
    };
    Ok((node, epoch, sponsor))
}

/// Parses a `node@epoch` leave spec.
fn parse_leave(raw: &str) -> Result<(usize, usize), String> {
    let err = || format!("leaves: expected \"node@epoch\", got {raw}");
    let (node, epoch) = raw.split_once('@').ok_or_else(err)?;
    Ok((
        node.trim().parse::<usize>().map_err(|_| err())?,
        epoch.trim().parse::<usize>().map_err(|_| err())?,
    ))
}

/// Assembles the `[membership]` section into a [`MembershipPlan`].
fn parse_membership(map: &mut KeyMap) -> Result<MembershipPlan, String> {
    let mut plan = MembershipPlan {
        seed: get_int(map, "membership.seed", 0)?,
        bootstrap_points: get_int(map, "membership.bootstrap_points", 0)?,
        ..MembershipPlan::default()
    };
    for raw in get_list(map, "membership.joins")? {
        let (node, epoch, sponsor) = parse_join(&raw)?;
        plan = plan.with_join(node, epoch, sponsor);
    }
    for raw in get_list(map, "membership.leaves")? {
        let (node, epoch) = parse_leave(&raw)?;
        plan = plan.with_leave(node, epoch);
    }
    Ok(plan)
}

/// Serializes a [`MembershipPlan`] as the `[membership]` section
/// [`parse_membership`] reads back.
fn membership_to_toml(plan: &MembershipPlan) -> String {
    let joins: Vec<String> = plan
        .joins
        .iter()
        .map(|j| match j.sponsor {
            Some(s) => format!("\"{}@{}<{s}\"", j.node, j.epoch),
            None => format!("\"{}@{}\"", j.node, j.epoch),
        })
        .collect();
    let leaves: Vec<String> = plan
        .leaves
        .iter()
        .map(|l| format!("\"{}@{}\"", l.node, l.epoch))
        .collect();
    format!(
        "\n[membership]\nseed = {}\nbootstrap_points = {}\njoins = [{}]\nleaves = [{}]\n",
        plan.seed,
        plan.bootstrap_points,
        joins.join(", "),
        leaves.join(", "),
    )
}

/// Assembles the `[sharding]` section into a [`ShardingConfig`],
/// validating against the cluster shape: `users_per_node` is required,
/// must be at least 1, and must tile the dataset exactly
/// (`users_per_node x num_nodes == num_users`).
fn parse_sharding(
    map: &mut KeyMap,
    num_nodes: usize,
    num_users: u32,
) -> Result<ShardingConfig, String> {
    if !map.contains_key("sharding.users_per_node") {
        return Err("sharding.users_per_node: required".to_string());
    }
    let users_per_node: u32 = get_int(map, "sharding.users_per_node", 0)?;
    if users_per_node == 0 {
        return Err("sharding.users_per_node: must be at least 1".to_string());
    }
    let hosted = users_per_node as u64 * num_nodes as u64;
    if hosted != u64::from(num_users) {
        return Err(format!(
            "sharding.users_per_node: {users_per_node} x {num_nodes} nodes = {hosted} \
             users, but num_users = {num_users} (shards must tile the dataset exactly)"
        ));
    }
    Ok(ShardingConfig { users_per_node })
}

/// Serializes a [`ShardingConfig`] as the `[sharding]` section
/// [`parse_sharding`] reads back.
fn sharding_to_toml(cfg: &ShardingConfig) -> String {
    format!("\n[sharding]\nusers_per_node = {}\n", cfg.users_per_node)
}

/// Assembles the `[serve]` section into a [`ServeConfig`].
fn parse_serve(map: &mut KeyMap) -> Result<ServeConfig, String> {
    let d = ServeConfig::default();
    let cfg = ServeConfig {
        queries_per_epoch: get_int(map, "serve.queries_per_epoch", d.queries_per_epoch as u64)?,
        top_k: get_int(map, "serve.top_k", d.top_k as u64)?,
        seed: get_int(map, "serve.seed", d.seed)?,
        verify_snapshots: get_bool(map, "serve.verify_snapshots", d.verify_snapshots)?,
    };
    if cfg.queries_per_epoch == 0 {
        return Err("serve.queries_per_epoch: must be >= 1".to_string());
    }
    if cfg.top_k == 0 {
        return Err("serve.top_k: must be >= 1".to_string());
    }
    Ok(cfg)
}

/// Serializes a [`ServeConfig`] as the `[serve]` section
/// [`parse_serve`] reads back.
fn serve_to_toml(cfg: &ServeConfig) -> String {
    format!(
        "\n[serve]\nqueries_per_epoch = {}\ntop_k = {}\nseed = {}\nverify_snapshots = {}\n",
        cfg.queries_per_epoch, cfg.top_k, cfg.seed, cfg.verify_snapshots,
    )
}

/// Assembles the `[faults]` section into a [`FaultPlan`].
fn parse_faults(map: &mut KeyMap) -> Result<FaultPlan, String> {
    Ok(FaultPlan {
        seed: get_int(map, "faults.seed", 0)?,
        link: LinkFaults {
            drop: get_float(map, "faults.drop", 0.0)?,
            delay: get_float(map, "faults.delay", 0.0)?,
            duplicate: get_float(map, "faults.duplicate", 0.0)?,
            reorder: get_float(map, "faults.reorder", 0.0)?,
        },
        link_overrides: get_list(map, "faults.links")?
            .iter()
            .map(|raw| parse_link_override(raw))
            .collect::<Result<_, _>>()?,
        partitions: get_list(map, "faults.partitions")?
            .iter()
            .map(|raw| parse_partition(raw))
            .collect::<Result<_, _>>()?,
        crashes: get_list(map, "faults.crashes")?
            .iter()
            .map(|raw| parse_crash(raw))
            .collect::<Result<_, _>>()?,
    })
}

/// Serializes a [`FaultPlan`] as the `[faults]` section
/// [`parse_faults`] reads back.
fn faults_to_toml(plan: &FaultPlan) -> String {
    let links: Vec<String> = plan
        .link_overrides
        .iter()
        .map(|(from, to, f)| {
            format!(
                "\"{from}>{to}:{}/{}/{}/{}\"",
                f.drop, f.delay, f.duplicate, f.reorder
            )
        })
        .collect();
    let partitions: Vec<String> = plan
        .partitions
        .iter()
        .map(|p| {
            let group: Vec<String> = p.group.iter().map(ToString::to_string).collect();
            format!("\"{}-{}:{}\"", p.start, p.end, group.join("|"))
        })
        .collect();
    let crashes: Vec<String> = plan
        .crashes
        .iter()
        .map(|c| match c.rejoin_epoch {
            Some(r) => format!("\"{}@{}-{r}\"", c.node, c.crash_epoch),
            None => format!("\"{}@{}\"", c.node, c.crash_epoch),
        })
        .collect();
    format!(
        "\n[faults]\nseed = {}\ndrop = {}\ndelay = {}\nduplicate = {}\nreorder = {}\nlinks = [{}]\npartitions = [{}]\ncrashes = [{}]\n",
        plan.seed,
        plan.link.drop,
        plan.link.delay,
        plan.link.duplicate,
        plan.link.reorder,
        links.join(", "),
        partitions.join(", "),
        crashes.join(", "),
    )
}

impl ClusterConfig {
    /// Parses a config file's contents.
    pub fn parse(text: &str) -> Result<Self, String> {
        let (mut map, sections) = parse_map(text)?;
        let map = &mut map;
        let d = ClusterConfig::default();
        let nodes = match take(map, "nodes") {
            Some(Value::List(addrs)) => addrs,
            Some(other) => return Err(format!("nodes: expected address array, got {other:?}")),
            None => return Err("nodes: required".to_string()),
        };
        if nodes.is_empty() {
            return Err("nodes: at least one address".to_string());
        }
        let num_nodes = nodes.len();
        let sharing = match get_str(map, "sharing", "raw")?.as_str() {
            "raw" | "rex" => SharingMode::RawData,
            "model" | "ms" => SharingMode::Model,
            other => return Err(format!("sharing: unknown mode {other}")),
        };
        let algorithm = match get_str(map, "algorithm", "dpsgd")?.as_str() {
            "dpsgd" => GossipAlgorithm::DPsgd,
            "rmw" => GossipAlgorithm::Rmw,
            other => return Err(format!("algorithm: unknown algorithm {other}")),
        };
        let topology = match get_str(map, "topology", "full")?.as_str() {
            "full" => TopologySpec::FullyConnected,
            "smallworld" if num_nodes <= SMALL_WORLD_K => {
                return Err(format!(
                    "topology: smallworld needs more than {SMALL_WORLD_K} nodes, got {num_nodes}"
                ))
            }
            "smallworld" => TopologySpec::SmallWorld,
            "er" => TopologySpec::ErdosRenyi,
            "ring" => TopologySpec::Ring,
            other => return Err(format!("topology: unknown topology {other}")),
        };
        let codec = match get_str(map, "codec", "dense")?.as_str() {
            "dense" => WireCodec::Dense,
            "sparse" => WireCodec::Sparse,
            other => return Err(format!("codec: unknown codec {other}")),
        };
        let faults = if sections.iter().any(|s| s == "faults") {
            let plan = parse_faults(map)?;
            // Reject bad rates / out-of-range node ids here, through
            // the parser's Result path — a malformed [faults] section
            // must not become a panic inside the deployed binary.
            plan.check(num_nodes).map_err(|e| format!("faults: {e}"))?;
            Some(plan)
        } else {
            None
        };
        let driver = match get_str(map, "driver", "lockstep")?.as_str() {
            "lockstep" => {
                if map.contains_key("staleness_k") {
                    return Err(
                        "staleness_k: only meaningful with driver = \"bounded-async\"".to_string(),
                    );
                }
                NodeDriver::Lockstep
            }
            "bounded-async" => NodeDriver::BoundedAsync {
                k: get_int(map, "staleness_k", 1)?,
            },
            other => return Err(format!("driver: unknown driver {other}")),
        };
        if matches!(driver, NodeDriver::BoundedAsync { .. }) {
            if algorithm != GossipAlgorithm::DPsgd {
                return Err(
                    "driver: bounded-async requires algorithm = \"dpsgd\" (every neighbour \
                     shares every epoch, which keeps \"wait for k shares\" deadlock-free)"
                        .to_string(),
                );
            }
            if sections.iter().any(|s| s == "faults" || s == "membership") {
                return Err(
                    "driver: bounded-async does not compose with [faults] or [membership] \
                     sections; their schedules are keyed to synchronized round boundaries"
                        .to_string(),
                );
            }
        }
        let membership = if sections.iter().any(|s| s == "membership") {
            let plan = parse_membership(map)?;
            // Reject bad schedules (out-of-range ids, epoch-0 joins,
            // self-sponsors…) through the parser's Result path — a
            // malformed [membership] section must not become a panic
            // inside the deployed binary.
            plan.check(num_nodes)
                .map_err(|e| format!("membership: {e}"))?;
            // Cross-section consistency: a node the fault plan keeps
            // dead for the whole run can never materialize its join.
            if let Some(faults) = &faults {
                let dead = faults.dead_at_setup(num_nodes);
                for join in &plan.joins {
                    if dead.get(join.node).copied().unwrap_or(false) {
                        return Err(format!(
                            "membership: node {} joins at epoch {}, but the [faults] \
                             section crashes it at epoch 0 with no rejoin",
                            join.node, join.epoch
                        ));
                    }
                }
            }
            Some(plan)
        } else {
            None
        };
        let num_users: u32 = get_int(map, "num_users", u64::from(d.num_users))?;
        let sharding = if sections.iter().any(|s| s == "sharding") {
            // Validated through the parser's Result path — a [sharding]
            // section that does not tile the dataset must not become a
            // partitioning panic inside the deployed binary.
            Some(parse_sharding(map, num_nodes, num_users)?)
        } else {
            None
        };
        let audit = sections.iter().any(|s| s == "audit");
        let serve = if sections.iter().any(|s| s == "serve") {
            Some(parse_serve(map)?)
        } else {
            None
        };
        let config = ClusterConfig {
            nodes,
            epochs: get_int(map, "epochs", d.epochs as u64)?,
            sharing,
            algorithm,
            topology,
            topology_seed: get_int(map, "topology_seed", d.topology_seed)?,
            num_users,
            num_items: get_int(map, "num_items", u64::from(d.num_items))?,
            num_ratings: get_int(map, "num_ratings", d.num_ratings as u64)?,
            data_seed: get_int(map, "data_seed", d.data_seed)?,
            split_seed: get_int(map, "split_seed", d.split_seed)?,
            protocol_seed: get_int(map, "protocol_seed", d.protocol_seed)?,
            points_per_epoch: get_int(map, "points_per_epoch", d.points_per_epoch as u64)?,
            steps_per_epoch: get_int(map, "steps_per_epoch", d.steps_per_epoch as u64)?,
            codec,
            sgx: get_bool(map, "sgx", d.sgx)?,
            processes_per_platform: get_int(
                map,
                "processes_per_platform",
                d.processes_per_platform as u64,
            )?,
            infra_seed: get_int(map, "infra_seed", d.infra_seed)?,
            faults,
            membership,
            sharding,
            audit,
            serve,
            driver,
        };
        reject_unknown_keys(map)?;
        Ok(config)
    }

    /// Serializes to the TOML subset [`ClusterConfig::parse`] reads.
    #[must_use]
    pub fn to_toml(&self) -> String {
        let addrs: Vec<String> = self.nodes.iter().map(|a| format!("\"{a}\"")).collect();
        let sharing = match self.sharing {
            SharingMode::RawData => "raw",
            SharingMode::Model => "model",
        };
        let algorithm = match self.algorithm {
            GossipAlgorithm::DPsgd => "dpsgd",
            GossipAlgorithm::Rmw => "rmw",
        };
        let topology = match self.topology {
            TopologySpec::FullyConnected => "full",
            TopologySpec::SmallWorld => "smallworld",
            TopologySpec::ErdosRenyi => "er",
            TopologySpec::Ring => "ring",
        };
        let faults = self.faults.as_ref().map(faults_to_toml).unwrap_or_default();
        let membership = self
            .membership
            .as_ref()
            .map(membership_to_toml)
            .unwrap_or_default();
        let sharding = self
            .sharding
            .as_ref()
            .map(sharding_to_toml)
            .unwrap_or_default();
        let audit = if self.audit { "\n[audit]\n" } else { "" };
        let serve = self.serve.as_ref().map(serve_to_toml).unwrap_or_default();
        let codec = match self.codec {
            WireCodec::Dense => "dense",
            WireCodec::Sparse => "sparse",
        };
        let driver = match self.driver {
            NodeDriver::Lockstep => "driver = \"lockstep\"".to_string(),
            NodeDriver::BoundedAsync { k } => {
                format!("driver = \"bounded-async\"\nstaleness_k = {k}")
            }
        };
        format!(
            "# REX cluster configuration (every process reads this same file)\n\
             nodes = [{}]\n\
             epochs = {}\n\
             sharing = \"{sharing}\"\n\
             algorithm = \"{algorithm}\"\n\
             topology = \"{topology}\"\n\
             topology_seed = {}\n\
             num_users = {}\n\
             num_items = {}\n\
             num_ratings = {}\n\
             data_seed = {}\n\
             split_seed = {}\n\
             protocol_seed = {}\n\
             points_per_epoch = {}\n\
             steps_per_epoch = {}\n\
             codec = \"{codec}\"\n\
             sgx = {}\n\
             processes_per_platform = {}\n\
             infra_seed = {}\n\
             {driver}\n{faults}{membership}{sharding}{audit}{serve}",
            addrs.join(", "),
            self.epochs,
            self.topology_seed,
            self.num_users,
            self.num_items,
            self.num_ratings,
            self.data_seed,
            self.split_seed,
            self.protocol_seed,
            self.points_per_epoch,
            self.steps_per_epoch,
            self.sgx,
            self.processes_per_platform,
            self.infra_seed,
        )
    }

    /// Number of nodes in the cluster.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The cluster's address map, parsed.
    pub fn addrs(&self) -> Result<Vec<SocketAddr>, String> {
        self.nodes
            .iter()
            .map(|a| a.parse().map_err(|e| format!("bad node address {a}: {e}")))
            .collect()
    }

    /// The per-node protocol parameters this config describes.
    #[must_use]
    pub fn protocol(&self) -> ProtocolConfig {
        ProtocolConfig {
            sharing: self.sharing,
            algorithm: self.algorithm,
            points_per_epoch: self.points_per_epoch,
            steps_per_epoch: self.steps_per_epoch,
            seed: self.protocol_seed,
            codec: self.codec,
        }
    }

    /// The fleet this config describes, as the one recipe's inputs:
    /// round-robin cohorts, or contiguous user blocks under a
    /// `[sharding]` section, with the default model and model seed.
    #[must_use]
    pub fn scenario(&self) -> Scenario {
        let d = Scenario::default();
        Scenario {
            dataset: SyntheticConfig {
                num_users: self.num_users,
                num_items: self.num_items,
                num_ratings: self.num_ratings,
                seed: self.data_seed,
                ..d.dataset
            },
            split_seed: self.split_seed,
            nodes: self.num_nodes(),
            sharded: self.sharding.is_some(),
            topology: self.topology,
            topology_seed: self.topology_seed,
            protocol: self.protocol(),
            ..d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ClusterConfig {
        ClusterConfig {
            nodes: vec!["127.0.0.1:7101".into(), "127.0.0.1:7102".into()],
            epochs: 6,
            sharing: SharingMode::Model,
            algorithm: GossipAlgorithm::Rmw,
            topology: TopologySpec::Ring,
            sgx: true,
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn toml_roundtrip() {
        let cfg = sample();
        let parsed = ClusterConfig::parse(&cfg.to_toml()).unwrap();
        assert_eq!(parsed, cfg);
    }

    #[test]
    fn parses_comments_defaults_and_arrays() {
        let cfg = ClusterConfig::parse(
            "# a cluster\nnodes = [\"127.0.0.1:9000\", \"127.0.0.1:9001\"] # two nodes\nepochs = 3\n",
        )
        .unwrap();
        assert_eq!(cfg.num_nodes(), 2);
        assert_eq!(cfg.epochs, 3);
        // Everything else defaulted.
        assert_eq!(cfg.sharing, SharingMode::RawData);
        assert!(!cfg.sgx);
        assert_eq!(cfg.addrs().unwrap()[1].port(), 9001);
    }

    #[test]
    fn codec_knob_parses_roundtrips_and_rejects_garbage() {
        // Default: dense.
        let cfg = ClusterConfig::parse("nodes = [\"127.0.0.1:1\"]\n").unwrap();
        assert_eq!(cfg.codec, WireCodec::Dense);
        // Sparse, and protocol() carries it.
        let cfg = ClusterConfig::parse("nodes = [\"127.0.0.1:1\"]\ncodec = \"sparse\"\n").unwrap();
        assert_eq!(cfg.codec, WireCodec::Sparse);
        assert_eq!(cfg.protocol().codec, cfg.codec);
        // Both codecs survive the TOML roundtrip.
        for codec in [WireCodec::Dense, WireCodec::Sparse] {
            let cfg = ClusterConfig { codec, ..sample() };
            assert_eq!(ClusterConfig::parse(&cfg.to_toml()).unwrap(), cfg);
        }
        // Garbage refused.
        for bad in ["codec = \"zip\"\n", "codec = 7\n"] {
            assert!(
                ClusterConfig::parse(&format!("nodes = [\"127.0.0.1:1\"]\n{bad}")).is_err(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn driver_knob_parses_roundtrips_and_validates() {
        // Default: lockstep.
        let cfg = ClusterConfig::parse("nodes = [\"127.0.0.1:1\"]\n").unwrap();
        assert_eq!(cfg.driver, NodeDriver::Lockstep);
        // Bounded-async with the default k.
        let cfg = ClusterConfig::parse("nodes = [\"127.0.0.1:1\"]\ndriver = \"bounded-async\"\n")
            .unwrap();
        assert_eq!(cfg.driver, NodeDriver::BoundedAsync { k: 1 });
        // Explicit k.
        let cfg = ClusterConfig::parse(
            "nodes = [\"127.0.0.1:1\"]\ndriver = \"bounded-async\"\nstaleness_k = 3\n",
        )
        .unwrap();
        assert_eq!(cfg.driver, NodeDriver::BoundedAsync { k: 3 });
        // Both drivers survive the TOML roundtrip.
        for driver in [NodeDriver::Lockstep, NodeDriver::BoundedAsync { k: 2 }] {
            let cfg = ClusterConfig {
                driver,
                // sample() uses rmw; bounded-async needs dpsgd.
                algorithm: GossipAlgorithm::DPsgd,
                ..sample()
            };
            assert_eq!(ClusterConfig::parse(&cfg.to_toml()).unwrap(), cfg);
        }
        // Garbage and invalid combinations refused.
        for bad in [
            "driver = \"warp\"\n",
            "driver = 7\n",
            "staleness_k = 2\n", // k without bounded-async
            "driver = \"bounded-async\"\nstaleness_k = -1\n",
            "driver = \"bounded-async\"\nalgorithm = \"rmw\"\n",
            "driver = \"bounded-async\"\n[faults]\n",
            "driver = \"bounded-async\"\n[membership]\n",
        ] {
            assert!(
                ClusterConfig::parse(&format!("nodes = [\"127.0.0.1:1\"]\n{bad}")).is_err(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn faults_section_roundtrips() {
        let cfg = ClusterConfig {
            faults: Some(
                FaultPlan {
                    seed: 9,
                    link: LinkFaults {
                        drop: 0.1,
                        delay: 0.05,
                        duplicate: 0.0,
                        reorder: 0.25,
                    },
                    ..FaultPlan::default()
                }
                .with_link(
                    0,
                    1,
                    LinkFaults {
                        drop: 0.5,
                        ..LinkFaults::default()
                    },
                )
                .with_partition(2, 4, vec![0, 1])
                .with_crash(1, 2, None)
                .with_crash(0, 3, Some(5)),
            ),
            ..sample()
        };
        let text = cfg.to_toml();
        assert!(text.contains("[faults]"), "{text}");
        let parsed = ClusterConfig::parse(&text).unwrap();
        assert_eq!(parsed, cfg);
    }

    #[test]
    fn faults_section_defaults_and_empty_section() {
        // An empty [faults] section means "a plan with no faults" — still
        // Some, so the cluster exercises the wrapper path.
        let cfg = ClusterConfig::parse("nodes = [\"127.0.0.1:1\"]\n[faults]\n").unwrap();
        assert_eq!(cfg.faults, Some(FaultPlan::default()));
        // No section at all means None.
        let cfg = ClusterConfig::parse("nodes = [\"127.0.0.1:1\"]\n").unwrap();
        assert_eq!(cfg.faults, None);
    }

    #[test]
    fn faults_section_rejects_malformed_specs() {
        let base = "nodes = [\"127.0.0.1:1\"]\n[faults]\n";
        for bad in [
            "drop = \"lots\"\n",
            "drop = 1.5\n",
            "drop = nan\n",
            "crashes = [\"3\"]\n",
            "crashes = [\"x@2\"]\n",
            "crashes = [\"9@0\"]\n",   // node 9 outside the 1-node cluster
            "crashes = [\"0@5-2\"]\n", // rejoins before crashing
            "partitions = [\"2:0|1\"]\n",
            "links = [\"0>1:0.5\"]\n",
            "links = [\"0-1:0/0/0/0\"]\n",
        ] {
            assert!(
                ClusterConfig::parse(&format!("{base}{bad}")).is_err(),
                "accepted {bad:?}"
            );
        }
        assert!(
            ClusterConfig::parse("nodes = [\"a\"]\n[buckets]\n").is_err(),
            "unknown section accepted"
        );
        assert!(
            ClusterConfig::parse("nodes = [\"a\"]\n[faults\n").is_err(),
            "unterminated section accepted"
        );
    }

    #[test]
    fn membership_section_roundtrips() {
        let cfg = ClusterConfig {
            nodes: (0..6).map(|i| format!("127.0.0.1:{}", 7300 + i)).collect(),
            membership: Some(
                MembershipPlan {
                    seed: 11,
                    bootstrap_points: 80,
                    ..MembershipPlan::default()
                }
                .with_join(4, 3, None)
                .with_join(5, 6, Some(2))
                .with_leave(1, 8),
            ),
            ..ClusterConfig::default()
        };
        let text = cfg.to_toml();
        assert!(text.contains("[membership]"), "{text}");
        assert!(text.contains("\"5@6<2\""), "{text}");
        let parsed = ClusterConfig::parse(&text).unwrap();
        assert_eq!(parsed, cfg);
        // Faults and membership sections coexist.
        let both = ClusterConfig {
            faults: Some(FaultPlan::uniform(3, LinkFaults::drop_rate(0.1))),
            ..cfg
        };
        assert_eq!(ClusterConfig::parse(&both.to_toml()).unwrap(), both);
    }

    #[test]
    fn membership_section_defaults_and_empty_section() {
        // An empty [membership] section means "a static plan" — still
        // Some, so the cluster exercises the view machinery.
        let cfg = ClusterConfig::parse("nodes = [\"127.0.0.1:1\"]\n[membership]\n").unwrap();
        assert_eq!(cfg.membership, Some(MembershipPlan::default()));
        // No section at all means None.
        let cfg = ClusterConfig::parse("nodes = [\"127.0.0.1:1\"]\n").unwrap();
        assert_eq!(cfg.membership, None);
    }

    #[test]
    fn join_of_a_setup_dead_node_is_a_parse_error_not_a_panic() {
        // Cross-section consistency: [faults] crashing a node at epoch 0
        // forever contradicts a [membership] join for the same node —
        // the deployed binary must refuse the config, not panic later.
        let text = "nodes = [\"a\", \"b\", \"c\"]\n\
                    [faults]\ncrashes = [\"2@0\"]\n\
                    [membership]\njoins = [\"2@1\"]\n";
        let err = ClusterConfig::parse(text).unwrap_err();
        assert!(err.contains("crashes it at epoch 0"), "got: {err}");
        // A crash *window* (with a rejoin) over the join epoch is legal:
        // the node joins the view and sits its crash window out.
        let text = "nodes = [\"a\", \"b\", \"c\"]\n\
                    [faults]\ncrashes = [\"2@0-2\"]\n\
                    [membership]\njoins = [\"2@1\"]\n";
        assert!(ClusterConfig::parse(text).is_ok());
    }

    #[test]
    fn membership_section_rejects_malformed_specs() {
        let base = "nodes = [\"127.0.0.1:1\", \"127.0.0.1:2\"]\n[membership]\n";
        for bad in [
            "joins = [\"1\"]\n",                       // no epoch
            "joins = [\"x@2\"]\n",                     // bad node
            "joins = [\"1@y\"]\n",                     // bad epoch
            "joins = [\"1@2<z\"]\n",                   // bad sponsor
            "joins = [\"9@2\"]\n",                     // node outside fleet
            "joins = [\"1@0\"]\n",                     // epoch-0 join
            "joins = [\"1@2<1\"]\n",                   // self-sponsor
            "joins = [\"1@2\", \"1@3\"]\n",            // duplicate join
            "joins = [\"0@1\", \"1@1\"]\n",            // no founding members
            "leaves = [\"1\"]\n",                      // no epoch
            "leaves = [\"9@2\"]\n",                    // node outside fleet
            "leaves = [\"1@2\", \"1@4\"]\n",           // duplicate leave
            "joins = [\"1@3\"]\nleaves = [\"1@2\"]\n", // leaves before joining
            "seed = \"lots\"\n",
            "bootstrap_points = -1\n",
            "joins = 7\n",
        ] {
            assert!(
                ClusterConfig::parse(&format!("{base}{bad}")).is_err(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn sharding_section_roundtrips() {
        let cfg = ClusterConfig {
            num_users: 24, // 2 nodes x 12 users/node (sample() has 2 nodes)
            sharding: Some(ShardingConfig { users_per_node: 12 }),
            ..sample()
        };
        let text = cfg.to_toml();
        assert!(text.contains("[sharding]"), "{text}");
        assert!(text.contains("users_per_node = 12"), "{text}");
        let parsed = ClusterConfig::parse(&text).unwrap();
        assert_eq!(parsed, cfg);
        // No section at all means None: the legacy grouping.
        let cfg = ClusterConfig::parse("nodes = [\"127.0.0.1:1\"]\n").unwrap();
        assert_eq!(cfg.sharding, None);
    }

    #[test]
    fn audit_section_parses_roundtrips_and_defaults() {
        // No section at all means no audit: no commitment traffic.
        let cfg = ClusterConfig::parse("nodes = [\"127.0.0.1:1\"]\n").unwrap();
        assert!(!cfg.audit);
        // A bare section turns it on.
        let cfg = ClusterConfig::parse("nodes = [\"127.0.0.1:1\"]\n[audit]\n").unwrap();
        assert!(cfg.audit);
        // The section survives the TOML roundtrip.
        let cfg = ClusterConfig {
            audit: true,
            ..sample()
        };
        let text = cfg.to_toml();
        assert!(text.contains("[audit]"), "{text}");
        assert_eq!(ClusterConfig::parse(&text).unwrap(), cfg);
    }

    /// The settings that had one value in every run are constants now:
    /// each old key is a key the parser does not know.
    #[test]
    fn removed_keys_are_refused_as_unknown() {
        let base = "nodes = [\"127.0.0.1:1\"]\n";
        for (text, err) in [
            (
                "[audit]\nbroadcast = true\n",
                "line 3: unknown key broadcast in [audit]",
            ),
            (
                "[audit]\nverify = false\n",
                "line 3: unknown key verify in [audit]",
            ),
            (
                "codec = \"sparse\"\nsparse_max_density = 0.25\n",
                "line 3: unknown top-level key sparse_max_density",
            ),
            (
                "[serve]\nexclude_rated = false\n",
                "line 3: unknown key exclude_rated in [serve]",
            ),
        ] {
            assert_eq!(
                ClusterConfig::parse(&format!("{base}{text}")),
                Err(err.to_string())
            );
        }
    }

    /// A small world links each node to its `SMALL_WORLD_K` nearest, so
    /// it needs more nodes than that: fewer is a config error, not a
    /// panic while the fleet is built.
    #[test]
    fn a_small_world_over_too_few_nodes_is_refused() {
        let toml = |n: usize| {
            let addrs: Vec<String> = (0..n).map(|i| format!("\"127.0.0.1:{}\"", i + 1)).collect();
            format!(
                "nodes = [{}]\ntopology = \"smallworld\"\n",
                addrs.join(", ")
            )
        };
        assert_eq!(
            ClusterConfig::parse(&toml(SMALL_WORLD_K)),
            Err(format!(
                "topology: smallworld needs more than {SMALL_WORLD_K} nodes, got {SMALL_WORLD_K}"
            ))
        );
        assert!(ClusterConfig::parse(&toml(1)).is_err());
        let cfg = ClusterConfig::parse(&toml(SMALL_WORLD_K + 1)).unwrap();
        assert_eq!(cfg.topology, TopologySpec::SmallWorld);
    }

    #[test]
    fn serve_section_parses_roundtrips_and_defaults() {
        // No section at all means None: no serve thread.
        let cfg = ClusterConfig::parse("nodes = [\"127.0.0.1:1\"]\n").unwrap();
        assert_eq!(cfg.serve, None);
        // An empty section enables serving with the defaults.
        let cfg = ClusterConfig::parse("nodes = [\"127.0.0.1:1\"]\n[serve]\n").unwrap();
        assert_eq!(cfg.serve, Some(ServeConfig::default()));
        // Explicit knobs parse.
        let cfg = ClusterConfig::parse(
            "nodes = [\"127.0.0.1:1\"]\n[serve]\nqueries_per_epoch = 4\ntop_k = 3\n\
             seed = 99\nverify_snapshots = true\n",
        )
        .unwrap();
        assert_eq!(
            cfg.serve,
            Some(ServeConfig {
                queries_per_epoch: 4,
                top_k: 3,
                seed: 99,
                verify_snapshots: true,
            })
        );
        // The section survives the TOML roundtrip.
        let cfg = ClusterConfig {
            serve: Some(ServeConfig {
                queries_per_epoch: 7,
                top_k: 2,
                seed: 0xABC,
                verify_snapshots: true,
            }),
            ..sample()
        };
        let text = cfg.to_toml();
        assert!(text.contains("[serve]"), "{text}");
        assert_eq!(ClusterConfig::parse(&text).unwrap(), cfg);
    }

    #[test]
    fn serve_section_rejects_malformed_knobs() {
        let base = "nodes = [\"127.0.0.1:1\"]\n[serve]\n";
        for bad in [
            "queries_per_epoch = 0\n",       // zero
            "top_k = 0\n",                   // zero
            "queries_per_epoch = -2\n",      // negative
            "top_k = \"ten\"\n",             // wrong type
            "seed = \"x\"\n",                // wrong type
            "verify_snapshots = \"true\"\n", // wrong type
        ] {
            assert!(
                ClusterConfig::parse(&format!("{base}{bad}")).is_err(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn sharding_strategy_defaults_to_contiguous() {
        let cfg = ClusterConfig::parse(
            "nodes = [\"127.0.0.1:1\", \"127.0.0.1:2\"]\nnum_users = 8\n\
             [sharding]\nusers_per_node = 4\n",
        )
        .unwrap();
        assert_eq!(cfg.sharding, Some(ShardingConfig { users_per_node: 4 }));
    }

    #[test]
    fn sharding_section_rejects_malformed_specs() {
        // 2 nodes x num_users = 24 (the default).
        let base = "nodes = [\"127.0.0.1:1\", \"127.0.0.1:2\"]\n[sharding]\n";
        for bad in [
            "",                                                        // users_per_node missing
            "users_per_node = 0\n",                                    // zero
            "users_per_node = 1000000\n",                              // huge: does not tile
            "users_per_node = 7\n",                                    // 7 x 2 != 24
            "users_per_node = -3\n",                                   // negative
            "users_per_node = \"lots\"\n",                             // wrong type
            "users_per_node = 12\nshard_strategy = \"hash\"\n",        // retired key
            "users_per_node = 12\nshard_strategy = 7\n",               // retired key
            "users_per_node = 12\nshard_strategy = \"round-robin\"\n", // retired key
        ] {
            assert!(
                ClusterConfig::parse(&format!("{base}{bad}")).is_err(),
                "accepted {bad:?}"
            );
        }
        // The exact-tiling configuration is accepted.
        assert!(ClusterConfig::parse(&format!("{base}users_per_node = 12\n")).is_ok());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(ClusterConfig::parse("").is_err(), "nodes required");
        assert!(ClusterConfig::parse("nodes = []").is_err());
        assert!(ClusterConfig::parse("nodes = [\"a\"]\nepochs = soon").is_err());
        assert!(ClusterConfig::parse("nodes = [\"a\"]\nsharing = \"gift\"").is_err());
        assert!(ClusterConfig::parse("nodes = [\"a\"]\nepochs = 1\nepochs = 2").is_err());
        assert!(
            ClusterConfig::parse("nodes = [\"a\"\n").is_err(),
            "unterminated array"
        );
        let bad_addr = ClusterConfig::parse("nodes = [\"not-an-addr\"]").unwrap();
        assert!(bad_addr.addrs().is_err());
    }

    #[test]
    fn a_misspelt_key_is_an_error_naming_it_not_a_default() {
        let base = "nodes = [\"127.0.0.1:1\", \"127.0.0.1:2\"]\nnum_users = 24\n";
        let err = ClusterConfig::parse(&format!("{base}epoch = 10\n")).unwrap_err();
        assert_eq!(err, "line 3: unknown top-level key epoch");
        // One slip per section, each beside a key the section does know
        // (`[audit]` knows none).
        for (section, known, slip) in [
            ("faults", "drop = 0.1", "dely = 0.2"),
            ("membership", "seed = 3", "join = [\"1@2\"]"),
            (
                "sharding",
                "users_per_node = 12",
                "shard_stratgy = \"contiguous\"",
            ),
            ("audit", "", "brodcast = true"),
            ("serve", "top_k = 5", "top_kk = 5"),
        ] {
            let good = format!("{base}[{section}]\n{known}\n");
            assert!(ClusterConfig::parse(&good).is_ok(), "{good}");
            let err = ClusterConfig::parse(&format!("{good}{slip}\n")).unwrap_err();
            let key = slip.split(' ').next().unwrap();
            assert_eq!(err, format!("line 5: unknown key {key} in [{section}]"));
        }
        // The earliest unknown line is the one reported.
        let err = ClusterConfig::parse(&format!("{base}zeta = 1\nalpha = 2\n")).unwrap_err();
        assert_eq!(err, "line 3: unknown top-level key zeta");
    }

    #[test]
    fn every_key_to_toml_emits_is_known_to_parse() {
        let everything = ClusterConfig {
            num_users: 24,
            codec: WireCodec::Sparse,
            faults: Some(FaultPlan {
                seed: 5,
                link_overrides: vec![(0, 1, LinkFaults::default())],
                partitions: vec![PartitionSpec {
                    start: 1,
                    end: 2,
                    group: vec![0],
                }],
                crashes: vec![CrashSpec {
                    node: 1,
                    crash_epoch: 2,
                    rejoin_epoch: Some(4),
                }],
                ..FaultPlan::default()
            }),
            membership: Some(MembershipPlan::default().with_leave(1, 3)),
            sharding: Some(ShardingConfig { users_per_node: 12 }),
            audit: true,
            serve: Some(ServeConfig::default()),
            ..sample()
        };
        assert_eq!(ClusterConfig::parse(&everything.to_toml()), Ok(everything));
        // The one key the lockstep form does not emit.
        let bounded = ClusterConfig {
            algorithm: GossipAlgorithm::DPsgd,
            driver: NodeDriver::BoundedAsync { k: 2 },
            ..sample()
        };
        assert_eq!(ClusterConfig::parse(&bounded.to_toml()), Ok(bounded));
    }

    /// Every `toml` example in this file's doc comments parses, under an
    /// 8-node `nodes` line and `num_users = 8192`.
    #[test]
    fn doc_examples_parse() {
        let fence = "```";
        let mut blocks: Vec<String> = Vec::new();
        let mut open: Option<String> = None;
        for line in include_str!("config.rs").lines() {
            let Some(doc) = line.trim_start().strip_prefix("///") else {
                continue;
            };
            let doc = doc.strip_prefix(' ').unwrap_or(doc);
            match open.as_mut() {
                None if doc == format!("{fence}toml") => open = Some(String::new()),
                Some(_) if doc == fence => blocks.extend(open.take()),
                Some(block) => {
                    block.push_str(doc);
                    block.push('\n');
                }
                None => {}
            }
        }
        assert_eq!(blocks.len(), 5, "doc examples found: {blocks:?}");
        let nodes: Vec<String> = (1..=8).map(|i| format!("\"127.0.0.1:{i}\"")).collect();
        let head = format!("nodes = [{}]\nnum_users = 8192\n", nodes.join(", "));
        for block in &blocks {
            if let Err(e) = ClusterConfig::parse(&format!("{head}{block}")) {
                panic!("doc example does not parse ({e}):\n{block}");
            }
        }
    }
}
