//! In-memory key-value systems for the RFP evaluation.
//!
//! The paper validates RFP with **Jakiro**, an in-memory key-value store
//! (§4.1), and compares it against three other systems. This crate
//! implements all four on the simulated cluster, plus every data
//! structure they need, from scratch:
//!
//! | System | Transport | Store | Module |
//! |---|---|---|---|
//! | Jakiro | RFP (remote fetching) | EREW bucketed 8-slot LRU table | [`bucket`], [`systems::spawn_jakiro`] |
//! | ServerReply | server-reply | same table | [`systems::spawn_server_reply_kv`] |
//! | RDMA-Memcached-like | server-reply | shared [`lru::LruCache`] behind a lock | [`mcd`], [`systems::spawn_memcached`] |
//! | Pilaf-like | server-bypass GET / server-reply PUT | 3-way cuckoo + CRC64 ([`PilafStore`], [`crc64()`](crc64())) | [`systems::spawn_pilaf`] |

pub mod bucket;
pub mod cores;
pub mod crc64;
pub mod hash;
pub mod hopscotch;
pub mod lru;
pub mod mcd;
pub mod proto;
pub mod replica;
pub mod sharded;
pub mod systems;

mod cuckoo;

pub use bucket::{Partition, PutOutcome, SLOTS_PER_BUCKET};
pub use cores::{build_keyspace, spawn_cores_kv, CoresConfig, CoresKv};
pub use crc64::{crc64, Crc64};
pub use cuckoo::{bypass_get, BypassGet, CuckooError, PilafStore, PilafView, SLOT_SIZE};
pub use hash::{hash_bytes, partition_of};
pub use hopscotch::{farm_get, FarmGet, FarmStore, FarmView, HopscotchError, NEIGHBORHOOD};
pub use lru::LruCache;
pub use mcd::{McdCosts, McdStore, McdThreadView};
pub use proto::{KvRequest, KvResponse, ProtoError};
pub use replica::{AckPolicy, BackupRole, PrimaryRole, ReplicaPair, ReplicationConfig};
pub use sharded::{spawn_sharded_jakiro, ShardedSystem};
pub use systems::{
    spawn_farm, spawn_fleet_kv, spawn_herd, spawn_jakiro, spawn_jakiro_shared, spawn_memcached,
    spawn_pilaf, spawn_server_reply_kv, FleetConfig, FleetKv, KvStats, KvSystem, SystemConfig,
};
