// Seeded violation: the switch misses Cat::Upgrade and has no default,
// so the project's -Werror=switch must refuse to compile it.
#include "cat.hpp"

int
costOf(Cat c)
{
    switch (c) {
      case Cat::Read:
        return 1;
      case Cat::Write:
        return 2;
    }
    return 0;
}
