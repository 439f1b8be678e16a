// The benchmark is a module of its own so that it builds from its own
// directory; the replace line points it at the working tree it measures.
module resilientdns/benchmark

go 1.22

require resilientdns v0.0.0

replace resilientdns => ../
