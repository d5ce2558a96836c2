#!/usr/bin/env bash
# cmds.sh runs each command-line tool once, the way a reader of README.md
# would: clusterq -list, slaplan with its baselines and a metrics file, and
# every ```sh block of README.md that is one continued simrun command, as
# written there but at -horizon 3000. It fails on the first command that
# exits non-zero, so a block whose line continuation is broken fails with
# "command not found". Run it from the repository root (make cmds); outputs
# go to a temporary directory.
set -euo pipefail

root=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/" ./cmd/clusterq ./cmd/slaplan ./cmd/simrun
ln -s "$root/testdata" "$tmp/testdata"
cd "$tmp"

echo "clusterq -list"
./clusterq -list > /dev/null
echo "slaplan -baselines -metrics-out"
./slaplan -config testdata/enterprise.json -baselines -metrics-out slaplan.prom > /dev/null
grep -q '^slaplan_mincost_cost ' slaplan.prom

awk -v dir="$tmp" '
	/^```sh$/ { inb = 1; b = ""; first = ""; next }
	inb && /^```$/ {
		inb = 0
		if (first ~ /^go run \.\/cmd\/simrun .*\\$/) {
			f = dir "/readme" ++n ".sh"
			printf "%s", b > f
			close(f)
		}
		next
	}
	inb {
		if (first == "" && $0 !~ /^#/) first = $0
		b = b $0 "\n"
	}
' "$root/README.md"

n=0
for f in readme*.sh; do
	[ -e "$f" ] || break
	n=$((n + 1))
	sed -i 's|^go run \./cmd/simrun |./simrun -horizon 3000 |' "$f"
	echo "README simrun example $n: $(grep -v '^#' "$f" | tr -d '\\\n' | tr -s ' ')"
	bash -eu "$f" > /dev/null
done
if [ "$n" -eq 0 ]; then
	echo "cmds.sh: no simrun example found in README.md" >&2
	exit 1
fi
