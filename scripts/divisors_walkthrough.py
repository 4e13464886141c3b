#!/usr/bin/env python3
"""Walk the divisors-of-6 example end to end: poset -> topology -> reports."""

import finitetop as ft
from finitetop.bitsets import subsets


def main():
    order = ft.Preorder.from_pairs(
        ("1", "2", "3", "6"), [("1", "2"), ("1", "3"), ("2", "6"), ("3", "6")]
    )
    sp = ft.topology_from_poset(order)
    print("opens:", sorted(("".join(sp.labels(u)) or "-") for u in sp.opens))

    print("\nset          closure      interior")
    for m in sorted(subsets(sp.full), key=lambda m: (m.bit_count(), m)):
        if not m:
            continue
        r = ft.closure_interior(sp, m)
        row = ["".join(sp.labels(x)) or "-" for x in (m, r["closure"], r["interior"])]
        print("{:<12} {:<12} {}".format(*row))

    prof = ft.separation_profile(sp)
    print("\nseparation:", prof)

    print("\nneighborhood bases:")
    for i, p in enumerate(sp.points):
        base = [u for u in sp.opens_by_size if u >> i & 1]
        print(f"  {p}: " + " ".join("{" + " ".join(sp.labels(u)) + "}" for u in base))

    hm = ft.hofmann_mislove_report(sp)
    count = len(hm.saturated_compacts)  # each is the generator of one proper filter
    print(f"\nsober: {hm.sober}, filters <-> saturated compacts: "
          f"{count} <-> {count}, bijection: {hm.bijection_holds}")


if __name__ == "__main__":
    main()
