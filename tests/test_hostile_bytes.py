"""Hostile bytes: simulator-produced blocks and chain files under mutation.

The blocks of a short rewards-on simulation, in each transaction model,
round-trip through serialize_block and deserialize_block. Their bytes with a
span overwritten, cut off or appended may raise only SerializationError,
whether they are decoded as one block or loaded as a chain file.
"""

import pytest
from hypothesis import given, settings, strategies as st

from scorechain.core_types import (
    SerializationError,
    TxModel,
    deserialize_block,
    serialize_block,
)
from scorechain.incentive import RewardSchedule
from scorechain.ledger import ChainState
from scorechain.simnet import SimConfig, Simulator


def simulated(model: TxModel) -> Simulator:
    cfg = SimConfig(
        n_nodes=6,
        duration=120,
        seed=5,
        tx_model=model,
        rewards=RewardSchedule(50, 10),
    )
    sim = Simulator(cfg)
    assert sim.run().blocks_minted > 0
    return sim


SIMS = {model: simulated(model) for model in TxModel}
# every block some node stored, side branches included, coinbase-bearing
BLOCKS = {
    model: sorted(
        {h: b for node in sim.nodes for h, b in node.state.blocks.items() if b.height}.values(),
        key=lambda b: (b.height, b.block_hash),
    )
    for model, sim in SIMS.items()
}


@pytest.fixture(scope="module")
def chain_files(tmp_path_factory):
    """Each model's followed chain, dumped by its first node."""
    root = tmp_path_factory.mktemp("chains")
    files = {}
    for model, sim in SIMS.items():
        files[model] = root / f"{model.value}.bin"
        sim.nodes[0].state.dump_chain(str(files[model]))
    return files


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile") / "chain.bin"


def load(sim: Simulator, path) -> ChainState:
    return ChainState.load_chain(
        sim.cfg.chain,
        sim.scheme.plain,
        str(path),
        sim.genesis_indices,
        coinbase_rule=sim.coinbase_rule,
    )


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """data with one span overwritten, cut off, or appended to."""
    kind = draw(st.sampled_from(("overwrite", "truncate", "extend", "splice")))
    at = draw(st.integers(0, len(data) - 1))
    if kind == "truncate":
        return data[:at]
    if kind == "extend":
        return data + draw(st.binary(min_size=1, max_size=16))
    junk = draw(st.binary(min_size=1, max_size=8))
    if kind == "overwrite":
        junk = bytes(b ^ (j or 1) for b, j in zip(data[at:], junk))
        return data[:at] + junk + data[at + len(junk) :]
    return data[:at] + junk + data[at + draw(st.integers(0, 8)) :]


def test_simulated_blocks_round_trip():
    for model, blocks in BLOCKS.items():
        assert any(tx.is_coinbase() for b in blocks for tx in b.transactions), model
        for block in blocks:
            data = serialize_block(block)
            back = deserialize_block(data)
            assert back == block  # same hash and certificate
            assert serialize_block(back) == data


def test_loaded_chain_file_matches_the_node(chain_files):
    for model, sim in SIMS.items():
        loaded = load(sim, chain_files[model])
        assert loaded.head == sim.nodes[0].state.head
        assert loaded.head_indices() == sim.nodes[0].state.head_indices()


@settings(max_examples=300, deadline=None)
@given(model=st.sampled_from(TxModel), data=st.data())
def test_mutated_block_bytes_raise_only_serialization_error(model, data):
    blocks = BLOCKS[model]
    block = blocks[data.draw(st.integers(0, len(blocks) - 1), label="block")]
    hostile = data.draw(mutated(serialize_block(block)), label="bytes")
    try:
        decoded = deserialize_block(hostile)
    except SerializationError:
        return
    assert serialize_block(decoded) == hostile  # one encoding per block


@settings(max_examples=150, deadline=None)
@given(model=st.sampled_from(TxModel), data=st.data())
def test_mutated_chain_file_raises_only_serialization_error(chain_files, scratch_file, model, data):
    hostile = data.draw(mutated(chain_files[model].read_bytes()), label="bytes")
    scratch_file.write_bytes(hostile)
    try:
        load(SIMS[model], scratch_file)
    except SerializationError:
        pass
