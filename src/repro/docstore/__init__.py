"""MongoDB 1.8 model: BSON, mongod, chunks/balancer, and the two clusters."""

from repro.docstore.bson import decode, encode, encoded_size, with_field
from repro.docstore.chunks import Balancer, Chunk, ConfigServer
from repro.docstore.cluster import (
    DEFAULT_COLLECTION,
    MongoAsCluster,
    MongoCsCluster,
    hash_shard,
)
from repro.docstore.journal import Journal, JournaledMongod
from repro.docstore.mongod import Collection, GlobalLock, Mongod
from repro.docstore.mongostat import format_mongostat, snapshot, summarize
from repro.docstore.reshard import MigrationEngine
from repro.docstore.ring import HashRing, moved_keys, vnode_point
from repro.docstore.wire import WireServer

__all__ = [
    "decode",
    "encode",
    "encoded_size",
    "with_field",
    "Balancer",
    "Chunk",
    "ConfigServer",
    "DEFAULT_COLLECTION",
    "MongoAsCluster",
    "MongoCsCluster",
    "hash_shard",
    "Collection",
    "GlobalLock",
    "Mongod",
    "Journal",
    "JournaledMongod",
    "MigrationEngine",
    "HashRing",
    "moved_keys",
    "vnode_point",
    "format_mongostat",
    "snapshot",
    "summarize",
    "WireServer",
]
