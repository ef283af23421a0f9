#!/bin/sh
# sweepflags.sh — fail if a sweep tool declares one of the shared sweep
# flags itself.
#
# internal/sweepcli is the one owner of the fourteen flags every sweep tool
# takes. hefopt, hefsens and ssbbench get them from sweepcli.Register; a
# tool that declares one of them again (flag.String("checkpoint", ...),
# fs.IntVar(&n, "workers", ...)) has forked the shared contract. This check
# greps every .go file under the three tools for a flag-declaring call whose
# name argument is a shared flag name.
set -eu

cd "$(dirname "$0")/.."

names='checkpoint|resume|workers|parallel|metrics-addr|heartbeat|memo-dir|cpuprofile|memprofile|selfcheck|timeout|coordinator|coordinator-key|worker-name'
decl='\.(Bool|Duration|Float64|Func|Int|Int64|String|TextVar|Uint|Uint64|Var)(Var)?\('

out=$(grep -nE "${decl}([^\"]*, *)?\"(${names})\"" $(find cmd/hefopt cmd/hefsens cmd/ssbbench -name '*.go') || true)
if [ -n "$out" ]; then
    echo "$out"
    echo "sweepflags: a sweep tool declares a shared sweep flag itself (see above);" >&2
    echo "sweepflags: take it from sweepcli.Register instead" >&2
    exit 1
fi
