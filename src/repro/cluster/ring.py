"""Token ring and partitioners.

Cassandra assigns each node one (or more) tokens on a ring; a key is hashed
to a token and owned by the first node found walking clockwise from that
token.  Replication strategies (see :mod:`repro.cluster.replication`) then
pick additional replicas by continuing the walk.

The one partitioner is :class:`Murmur3Partitioner`, a fast, well-mixed
64-bit hash (MurmurHash3's 64-bit finaliser over blake2 input, sufficient
for uniform key spreading in the simulator).
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
from abc import ABC, abstractmethod
from typing import Dict, Iterator, List, Optional, Sequence

from repro.network.topology import NodeAddress

__all__ = ["Partitioner", "Murmur3Partitioner", "TokenRing"]


class Partitioner(ABC):
    """Maps a key (string) to an integer token in ``[0, 2**64)``."""

    TOKEN_SPACE = 2**64

    @abstractmethod
    def token(self, key: str) -> int:
        """Return the token of ``key`` (uniformly spread over the token space)."""

    def node_token(self, address: NodeAddress, index: int = 0) -> int:
        """Token assigned to a node (or to its ``index``-th virtual node)."""
        return self.token(f"__node__:{address}:{index}")


class Murmur3Partitioner(Partitioner):
    """64-bit hash partitioner (MurmurHash3-style finaliser).

    The implementation hashes with BLAKE2b (stable across platforms and
    Python versions) and then applies the Murmur3 64-bit finaliser to get the
    avalanche behaviour a partitioner needs.
    """

    @staticmethod
    def _fmix64(value: int) -> int:
        mask = 0xFFFFFFFFFFFFFFFF
        value &= mask
        value ^= value >> 33
        value = (value * 0xFF51AFD7ED558CCD) & mask
        value ^= value >> 33
        value = (value * 0xC4CEB9FE1A85EC53) & mask
        value ^= value >> 33
        return value

    def token(self, key: str) -> int:
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
        return self._fmix64(int.from_bytes(digest, "little"))


class TokenRing:
    """Maps tokens to nodes and answers ownership / walk queries.

    Parameters
    ----------
    nodes:
        Node addresses participating in the ring.
    partitioner:
        Token hash function (defaults to :class:`Murmur3Partitioner`).
    vnodes:
        Number of virtual nodes (tokens) per physical node.  Cassandra 1.0
        used a single token per node; a handful of vnodes gives a more even
        load spread for small simulated clusters, so the default is 8.
    """

    def __init__(
        self,
        nodes: Sequence[NodeAddress],
        partitioner: Optional[Partitioner] = None,
        vnodes: int = 8,
    ) -> None:
        if not nodes:
            raise ValueError("a ring needs at least one node")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes!r}")
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate node addresses in ring")
        self.partitioner = partitioner or Murmur3Partitioner()
        self.vnodes = int(vnodes)
        self._nodes: List[NodeAddress] = list(nodes)
        self._token_map: Dict[int, NodeAddress] = {}
        node_index: Dict[NodeAddress, int] = {node: i for i, node in enumerate(self._nodes)}
        for node in self._nodes:
            for index in range(self.vnodes):
                token = self.partitioner.node_token(node, index)
                # Extremely unlikely collision; nudge deterministically.
                while token in self._token_map:
                    token = (token + 1) % Partitioner.TOKEN_SPACE
                self._token_map[token] = node
        self._sorted_tokens: List[int] = sorted(self._token_map)
        # Walk acceleration: the owner of sorted token i as an *index* into
        # self._nodes, so the clockwise walk deduplicates physical nodes by
        # small int instead of hashing NodeAddress objects per vnode.
        self._owner_index: List[int] = [
            node_index[self._token_map[token]] for token in self._sorted_tokens
        ]
        #: Clockwise walks started and ring tokens they stepped over so far:
        #: tokens per walk is what a placement miss costs on this ring.
        self.walks = 0
        self.tokens_visited = 0

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[NodeAddress]:
        """Physical nodes in the ring (construction order)."""
        return list(self._nodes)

    @property
    def size(self) -> int:
        return len(self._nodes)

    def token_of(self, key: str) -> int:
        """Token of a data key."""
        return self.partitioner.token(key)

    def _position_of(self, token: int) -> int:
        """Index of the first ring token ``>= token`` (wrapping to 0).

        Everything placed by a clockwise walk depends on the key only through
        this position.
        """
        tokens = self._sorted_tokens
        position = bisect.bisect_left(tokens, token % Partitioner.TOKEN_SPACE)
        return position if position < len(tokens) else 0

    def primary_replica(self, key: str) -> NodeAddress:
        """The node owning the key's token (first clockwise from the token)."""
        return self._nodes[self._owner_index[self._position_of(self.token_of(key))]]

    def walk_from_token(self, token: int, limit: Optional[int] = None) -> Iterator[NodeAddress]:
        """Lazily yield distinct physical nodes clockwise starting at ``token``.

        The walk visits every physical node at most once and costs only what
        the consumer takes: a replication strategy stops pulling as soon as
        its rules are satisfied, so a placement visits O(RF + skipped vnodes)
        ring tokens however wide the ring is.  ``limit`` bounds the walk to
        that many distinct nodes (``0`` yields nothing); ``None`` lets it go
        round the whole ring.
        """
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit!r}")
        self.walks += 1
        walk = self._clockwise(self._position_of(token))
        return walk if limit is None else itertools.islice(walk, int(limit))

    def _clockwise(self, position: int) -> Iterator[NodeAddress]:
        owners = self._owner_index
        nodes = self._nodes
        count = len(owners)
        remaining = len(nodes)
        seen = set()
        while remaining:
            self.tokens_visited += 1
            index = owners[position]
            position += 1
            if position == count:
                position = 0
            if index not in seen:
                seen.add(index)
                remaining -= 1
                yield nodes[index]

    def walk_from_key(self, key: str, limit: Optional[int] = None) -> Iterator[NodeAddress]:
        """Clockwise node walk starting at the key's token."""
        return self.walk_from_token(self.token_of(key), limit=limit)

    def ownership(self, sample_keys: Sequence[str]) -> Dict[NodeAddress, int]:
        """Count how many of ``sample_keys`` each node primarily owns.

        Used by tests to verify the ring spreads load roughly evenly.
        """
        counts: Dict[NodeAddress, int] = {node: 0 for node in self._nodes}
        for key in sample_keys:
            counts[self.primary_replica(key)] += 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TokenRing(nodes={len(self._nodes)}, vnodes={self.vnodes})"
