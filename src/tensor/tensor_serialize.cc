#include "tensor/tensor_serialize.h"

namespace mmm {

void WriteTensor(BinaryWriter* writer, const Tensor& tensor) {
  writer->WriteVarint(tensor.ndim());
  for (size_t d : tensor.shape()) writer->WriteVarint(d);
  writer->WriteFloatSpan(tensor.data());
}

Result<Tensor> ReadTensor(BinaryReader* reader) {
  MMM_ASSIGN_OR_RETURN(uint64_t ndim, reader->ReadVarint());
  if (ndim > Shape::kMaxRank) {
    return Status::Corruption("tensor with implausible rank ", ndim);
  }
  Shape shape;
  size_t numel = ndim == 0 ? 0 : 1;
  for (size_t i = 0; i < ndim; ++i) {
    MMM_ASSIGN_OR_RETURN(uint64_t d, reader->ReadVarint());
    shape.push_back(d);
    numel *= d;
  }
  if (reader->remaining() < numel * sizeof(float)) {
    return Status::Corruption("tensor data truncated: need ", numel, " floats");
  }
  MMM_ASSIGN_OR_RETURN(std::vector<float> data, reader->ReadFloats(numel));
  return Tensor(shape, std::move(data));
}

}  // namespace mmm
