#include "nn/zoo.hpp"

#include <sstream>

namespace c2pi::nn::zoo {

namespace {

using Builder = Graph (*)(const ModelConfig&);

struct Entry {
    const char* id;
    const char* description;
    bool residual;
    Builder build;
};

// The residual builders take a defaulted fold_bn flag, so they need a
// one-argument wrapper to fit Builder.
Graph build_resnet9(const ModelConfig& c) { return make_resnet9(c); }
Graph build_resnet18(const ModelConfig& c) { return make_resnet18(c); }

constexpr Entry kEntries[] = {
    {"alexnet", "AlexNet CIFAR variant: 5 conv + 3 FC", false, make_alexnet},
    {"vgg16", "VGG16 CIFAR variant: 13 conv + 1 FC", false, make_vgg16},
    {"vgg19", "VGG19 CIFAR variant: 16 conv + 1 FC", false, make_vgg19},
    {"resnet9", "ResNet-9: 2 basic blocks, BN-folded, GlobalAvgPool head", true,
     build_resnet9},
    {"resnet18", "ResNet-18: 4 stages x 2 basic blocks, BN-folded", true, build_resnet18},
};

std::int64_t count_parameters(Graph& g) {
    std::int64_t total = 0;
    for (const Parameter* p : g.parameters()) total += p->value.numel();
    return total;
}

}  // namespace

UnknownModel::UnknownModel(const std::string& id)
    : Error([&] {
          std::ostringstream os;
          os << "unknown model id '" << id << "' (known:";
          for (const Entry& e : kEntries) os << ' ' << e.id;
          os << ')';
          return os.str();
      }()) {}

const std::vector<Descriptor>& list() {
    static const std::vector<Descriptor> catalogue = [] {
        std::vector<Descriptor> out;
        const ModelConfig defaults{};
        for (const Entry& e : kEntries) {
            Graph g = e.build(defaults);
            out.push_back({e.id, e.description,
                           {defaults.input_channels, defaults.input_hw, defaults.input_hw},
                           count_parameters(g), g.num_linear_ops(), e.residual});
        }
        return out;
    }();
    return catalogue;
}

Graph build(const std::string& id, const ModelConfig& config) {
    for (const Entry& e : kEntries)
        if (id == e.id) return e.build(config);
    throw UnknownModel(id);
}

}  // namespace c2pi::nn::zoo
