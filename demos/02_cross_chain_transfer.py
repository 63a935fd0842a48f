"""Move an asset between two chains, then show a transfer failing safely.

The happy path locks a coin on the source chain against a freshness tag
issued by the target, claims it on the target with a quorum-certified
inclusion proof, and resolves the lock back home. The second act replays
the same claim (rejected: the lock nonce is spent) and lets a stale tag
turn a claim into a committed abort that releases the lock.

Run with:  python3 demos/02_cross_chain_transfer.py
"""

from splitchain.manager import Ecosystem
from splitchain.model import Asset, Role
from splitchain.xchain import toa_claim, toa_lock, toa_resolve


def age_chain(eco, chain_id: bytes, blocks: int) -> None:
    """Commit empty blocks so the chain's height moves past tag expiries."""
    for _ in range(blocks):
        eco.chains[chain_id].commit([])


def main() -> None:
    eco = Ecosystem(seed=7)
    for i in range(4):
        eco.register_user(b"s%03d" % i, Role.VALIDATOR)
        eco.register_user(b"t%03d" % i, Role.VALIDATOR)
    eco.register_user(b"alice", Role.CLIENT)
    eco.register_user(b"bob", Role.CLIENT)
    eco.create_chain(b"src", [b"s%03d" % i for i in range(4)], [b"alice"],
                     initial_assets=[Asset(b"coin", b"alice", 21),
                                     Asset(b"gem", b"alice", 5)])
    eco.create_chain(b"dst", [b"t%03d" % i for i in range(4)], [b"bob"])

    print("== happy path ==")
    lock = toa_lock(eco, b"alice", b"coin", b"bob", b"dst")
    print(f"locked coin on src; proof carries"
          f" {len(lock.inner.certificate.signatures)} signatures"
          f" ({lock.inner.size_bytes} bytes)")
    claim = toa_claim(eco, b"bob", b"dst", lock)
    print(f"claim on dst -> {claim.kind}")
    outcome = toa_resolve(eco, b"src", claim)
    dst_coin = eco.chains[b"dst"].state.assets[b"coin"]
    print(f"resolve on src -> {outcome};"
          f" coin now owned by {dst_coin.owner.decode()} on dst")

    print("\n== replayed claim ==")
    replay = toa_claim(eco, b"bob", b"dst", lock)
    print(f"same lock proof again -> {replay.kind}"
          f" (the lock nonce was already consumed)")

    print("\n== stale tag turns into a committed abort ==")
    gem_lock = toa_lock(eco, b"alice", b"gem", b"bob", b"dst")
    print("locked gem on src, then let the target chain age past the"
          " tag's expiry window...")
    age_chain(eco, b"dst", 101)
    late = toa_claim(eco, b"bob", b"dst", gem_lock)
    print(f"late claim -> {late.kind} (committed with verdict 0)")
    outcome = toa_resolve(eco, b"src", late)
    gem = eco.chains[b"src"].state.assets[b"gem"]
    print(f"resolve on src -> {outcome}; gem is"
          f" {'locked' if gem.locked else 'unlocked'} and stays with"
          f" {gem.owner.decode()}")


if __name__ == "__main__":
    main()
