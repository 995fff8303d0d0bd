// Seeded violation: a hash container, whose iteration order is
// unspecified, feeding an output stream.
#include <ostream>
#include <unordered_map>

void
dumpTable(std::ostream &os)
{
    std::unordered_map<int, int> table;
    table[1] = 2;
    for (const auto &kv : table)
        os << kv.first << " " << kv.second << "\n";
}
